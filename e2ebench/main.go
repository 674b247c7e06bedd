// Command e2ebench is the end-to-end benchmark of the smartsouth facade.
// It runs one of three seeded workloads through the public API, checks
// every answer against an oracle, and prints every end-to-end metric by
// name and unit; the traced run (--trace 1) also attributes time and
// counts to the layers underneath. See METRICS.md for the workloads and
// the metrics.
//
//	e2ebench --workload snapshot-query --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the gated end-to-end metrics without
// tracing, the per-layer metrics with it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"smartsouth"
)

// gated are the end-to-end metrics the JSON line carries: the ones every
// workload produces, that are never 0 and that hold steady across seeds.
var gated = []string{
	"setup_s", "ops_per_s", "op_p50_ms",
	"inband_msgs_per_op", "rule_entries_per_service", "heap_peak_mb",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spanDir := fs.String("span-dir", "", "directory the traced run writes its spans to, as JSONL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1}
	b, err := execute(sp, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if cfg.Trace && *spanDir != "" {
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", sp.Name, cfg.Seed))
		if err := writeSpans(path, b.tr.spans); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.tr.spans), path)
	}
	return report(stdout, b)
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// execute runs one benchmark: set-up, warm-up, the timed phase, and on a
// traced run the per-layer attribution.
func execute(sp spec, cfg config) (*bench, error) {
	b, err := newBench(sp, cfg)
	if err != nil {
		return nil, err
	}
	if err := b.setup(); err != nil {
		return nil, err
	}
	b.warmup()
	before := smartsouth.TelemetrySnapshot()
	if err := b.phase(time.Duration(cfg.Seconds*float64(time.Second)), sp.ExactSteps); err != nil {
		return nil, err
	}
	after := smartsouth.TelemetrySnapshot()
	if cfg.Trace {
		b.layers = perLayer(b, before, after)
	}
	return b, nil
}

// endToEnd computes the thirteen end-to-end metrics of the timed phase.
// The exactly repeating ones (message counts, rule space, simulated
// latency) are taken over the first ExactSteps steps only.
func endToEnd(b *bench) []metric {
	var host, simExact []float64
	var exactOps, exactInband, exactCtl, inband float64
	for _, o := range b.ops {
		host = append(host, o.hostMs)
		if o.step < b.sp.ExactSteps {
			simExact = append(simExact, o.simUs)
		}
	}
	for i, st := range b.steps {
		inband += float64(st.inband)
		if i < b.sp.ExactSteps {
			exactOps += float64(st.ops)
			exactInband += float64(st.inband)
			exactCtl += float64(st.outs + st.ins)
		}
	}
	secs := float64(b.phaseNs) / 1e9
	n := len(host)
	count := fmt.Sprintf("n=%d", n)
	p99 := metric{"op_p99_ms", "ms", quantile(host, 0.99), count}
	if n < 1000 {
		p99.Value, p99.Note = 0, fmt.Sprintf("not reported: n=%d < 1000", n)
	}
	simTail := 0.99
	if len(simExact) < 1000 {
		simTail = 0.90
	}
	simCount := fmt.Sprintf("n=%d, first %d steps", len(simExact), b.sp.ExactSteps)
	return []metric{
		{"setup_s", "s", median(b.setupS), fmt.Sprintf("median of %d set-ups", len(b.setupS))},
		{"ops_per_s", "1/s", ratio(float64(n), secs), fmt.Sprintf("%d ops in %.2f s", n, secs)},
		{"op_p50_ms", "ms", quantile(host, 0.50), count},
		{"op_p90_ms", "ms", quantile(host, 0.90), count},
		p99,
		{"hops_per_s", "1/s", ratio(inband, secs), ""},
		{"sim_latency_p50_us", "us", quantile(simExact, 0.50), simCount},
		{"sim_latency_p99_us", "us", quantile(simExact, simTail), fmt.Sprintf("p%.0f rank, %s", simTail*100, simCount)},
		{"inband_msgs_per_op", "count", ratio(exactInband, exactOps), "exact"},
		{"ctl_msgs_per_op", "count", ratio(exactCtl, exactOps), "exact"},
		{"rule_entries_per_service", "count", mean(b.rules), fmt.Sprintf("exact, %d services", len(b.rules))},
		{"failed_op_frac", "ratio", ratio(float64(b.failed()), float64(b.attempted())), ""},
		{"heap_peak_mb", "MB", float64(b.heapPeak) / (1 << 20), "live heap, runtime/metrics"},
	}
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines, then the JSON result line.
func report(w io.Writer, b *bench) int {
	sp := b.sp
	fmt.Fprintf(w, "workload %s: %s, %d switches, %d links, backend %s, %d shard(s), %s\n",
		sp.Name, sp.Topo, b.g.NumNodes(), b.g.NumEdges(), sp.Backend, b.shards, sp.Loop)
	fmt.Fprintf(w, "seed %d, trace %v, %d steps, %d ops attempted, %d failed\n",
		b.cfg.Seed, b.cfg.Trace, len(b.steps), b.attempted(), b.failed())
	for _, f := range b.failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	e2e := endToEnd(b)
	printMetrics(w, "end-to-end", e2e)
	res := result{
		Correct:   b.failed() == 0 && b.attempted() > 0,
		Attempted: b.attempted(),
		Failed:    b.failed(),
		Metrics:   map[string]resultValue{},
	}
	if b.cfg.Trace {
		printMetrics(w, "per-layer (traced run)", b.layers)
		for _, m := range b.layers {
			res.Metrics[m.Name] = resultValue{m.Value, m.Unit}
		}
	} else {
		for _, m := range e2e {
			if slices.Contains(gated, m.Name) {
				res.Metrics[m.Name] = resultValue{m.Value, m.Unit}
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(w, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, note)
	}
}
