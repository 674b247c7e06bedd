package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"smartsouth"
	"smartsouth/internal/topo"
)

// toy shrinks a workload to a graph of a few dozen switches and a fixed
// number of steps, so the self-test runs in seconds.
func toy(t *testing.T, name string) (spec, config) {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	switch name {
	case "snapshot-query":
		sp.Graph = fixedISP(4, 4)
	case "service-churn":
		// A tree, so critical cycles see both verdicts (ISP graphs at the
		// full size have no articulation point).
		sp.Graph = func() (*smartsouth.Graph, error) { return smartsouth.Tree(15, 2), nil }
	case "anycast-burst":
		sp.Graph = fatTree(4)
		sp.Groups, sp.Burst = 4, 16
	}
	sp.SetupReps, sp.Warmup, sp.ExactSteps = 2, 3, 12
	if sp.EpochSteps > 0 {
		sp.EpochSteps = 4
	}
	// A zero-length phase runs exactly the ExactSteps prefix.
	return sp, config{Seed: 7}
}

func metricValue(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not reported", name)
	return 0
}

func TestWorkloadsPassOraclesAtToySize(t *testing.T) {
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			sp, cfg := toy(t, w.Name)
			cfg.Trace = traced
			b, err := execute(sp, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if b.attempted() == 0 || b.failed() != 0 {
				t.Fatalf("%s trace=%v: %d attempted, %d failed: %v", w.Name, traced, b.attempted(), b.failed(), b.failures)
			}
			e2e := endToEnd(b)
			switch w.Name {
			case "snapshot-query":
				want := float64(4*b.g.NumEdges() - 2*b.g.NumNodes() + 2)
				if got := metricValue(t, e2e, "inband_msgs_per_op"); got != want {
					t.Errorf("snapshot in-band per op %v, Table 2 gives %v", got, want)
				}
				if got := metricValue(t, e2e, "ctl_msgs_per_op"); got != 2 {
					t.Errorf("snapshot out-band per op %v, Table 2 gives 2", got)
				}
			case "anycast-burst":
				if got := metricValue(t, e2e, "ctl_msgs_per_op"); got != 0 {
					t.Errorf("anycast out-band per op %v, Table 2 gives 0", got)
				}
			}
			if traced && len(b.layers) == 0 {
				t.Errorf("%s: traced run reported no per-layer metrics", w.Name)
			}
		}
	}
}

func TestAnycastExactCountsMatchAcrossShardCounts(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark caps shards at the CPU count; need 2 CPUs")
	}
	exact := func(shards int) ([]float64, []int) {
		sp, cfg := toy(t, "anycast-burst")
		sp.Shards = shards
		b, err := execute(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.shards != shards || b.failed() != 0 {
			t.Fatalf("shards=%d: ran on %d shards, %d failed", shards, b.shards, b.failed())
		}
		var sim []float64
		for _, o := range b.ops {
			sim = append(sim, o.simUs)
		}
		var inband []int
		for _, st := range b.steps {
			inband = append(inband, st.inband, st.outs, st.ins)
		}
		return sim, inband
	}
	sim1, counts1 := exact(1)
	sim2, counts2 := exact(2)
	if !slices.Equal(counts1, counts2) {
		t.Errorf("per-round message counts differ: shards=1 %v, shards=2 %v", counts1, counts2)
	}
	// Simultaneous independent messages may be ordered differently on the
	// sharded engine, but each one's own latency may not change.
	sort.Float64s(sim1)
	sort.Float64s(sim2)
	if !slices.Equal(sim1, sim2) {
		t.Errorf("simulated latencies differ between shards=1 and shards=2")
	}
}

func TestPlantedBlackholeCountsAsFailedOp(t *testing.T) {
	sp, cfg := toy(t, "snapshot-query")
	b, err := newBench(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	// Any link: a snapshot crosses every link in both directions.
	e := b.g.Edges()[b.g.NumEdges()/2]
	if err := b.d.Net.SetBlackhole(e.U, e.V, false); err != nil {
		t.Fatal(err)
	}
	if err := b.phase(0, sp.ExactSteps); err != nil {
		t.Fatal(err)
	}
	if b.attempted() == 0 || b.failed() != b.attempted() {
		t.Fatalf("planted blackhole: %d of %d snapshot queries failed, want all", b.failed(), b.attempted())
	}
	var out bytes.Buffer
	report(&out, b)
	res := lastLine(t, out.String())
	if res.Correct || res.Failed != b.attempted() {
		t.Errorf("result line reports correct=%v failed=%d for a run whose every op failed", res.Correct, res.Failed)
	}
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return res
}

// TestResultLineMatchesBenchmarkJSON checks that the untraced result line
// carries exactly the end-to-end metrics BENCHMARK.json declares, and the
// traced one exactly its per-layer metrics, with the declared units.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(traced bool, want []decl) {
		sp, cfg := toy(t, "service-churn")
		cfg.Trace = traced
		b, err := execute(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := report(&out, b); code != 0 {
			t.Fatalf("report exit code %d", code)
		}
		res := lastLine(t, out.String())
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("trace=%v: result correct=%v attempted=%d", traced, res.Correct, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics on the result line, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s: got %+v (present %v), declared unit %s", traced, d.Name, m, ok, d.Unit)
			}
		}
	}
	check(false, bj.EndToEnd)
	check(true, bj.PerLayer)
}

func TestSnapshotOracleRejectsWrongAnswers(t *testing.T) {
	g, err := fixedISP(4, 4)()
	if err != nil {
		t.Fatal(err)
	}
	o := newSnapshotOracle(g)
	good := func() (*smartsouth.SnapshotResult, query) {
		res := &smartsouth.SnapshotResult{Nodes: map[int]bool{}, Edges: append([]smartsouth.Edge(nil), g.Edges()...)}
		for v := 0; v < g.NumNodes(); v++ {
			res.Nodes[v] = true
		}
		return res, query{inband: 4*g.NumEdges() - 2*g.NumNodes() + 2, ctl: 2}
	}
	if res, q := good(); o.check(res, q) != nil {
		t.Fatalf("the graph itself fails the oracle: %v", o.check(res, q))
	}
	wrong := map[string]func(*smartsouth.SnapshotResult, *query){
		"missing edge":  func(r *smartsouth.SnapshotResult, _ *query) { r.Edges = r.Edges[1:] },
		"missing node":  func(r *smartsouth.SnapshotResult, _ *query) { delete(r.Nodes, 0) },
		"wrong port":    func(r *smartsouth.SnapshotResult, _ *query) { r.Edges[0].PU++ },
		"in-band count": func(_ *smartsouth.SnapshotResult, q *query) { q.inband++ },
		"out-band count": func(_ *smartsouth.SnapshotResult, q *query) {
			q.ctl++
		},
	}
	for name, mutate := range wrong {
		res, q := good()
		mutate(res, &q)
		if o.check(res, q) == nil {
			t.Errorf("%s: the oracle accepted a wrong snapshot", name)
		}
	}
}

func TestArticulationPointsMatchGolden(t *testing.T) {
	for _, mk := range []func() (*smartsouth.Graph, error){
		fixedISP(16, 8),
		func() (*smartsouth.Graph, error) { return smartsouth.Tree(15, 2), nil },
		func() (*smartsouth.Graph, error) { return smartsouth.RandomConnected(40, 10, 3), nil },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		golden := topo.ArticulationPoints(g)
		for v, cut := range articulationPoints(g) {
			if cut != golden[v] {
				t.Errorf("%d-node graph: node %d critical=%v, golden %v", g.NumNodes(), v, cut, golden[v])
			}
		}
	}
}
