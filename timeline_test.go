package smartsouth

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smartsouth/internal/telemetry"
)

// TestTimelineCrossShardReconstruction pins the tentpole property of the
// causal tracer: a traversal on a sharded network reconstructs into ONE
// complete trace whose span count equals the observed hop count plus the
// root execution (every delivered link crossing causes exactly one
// pipeline execution; the trigger's injection causes one more without a
// preceding hop), and whose tree contains cross-shard parent→child edges
// stitched at the window barriers.
func TestTimelineCrossShardReconstruction(t *testing.T) {
	g := Ring(20)
	d := Deploy(g, WithShards(4), WithTimeline(1<<14))
	if got := d.Net.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	delivered := 0
	d.Net.ObserveHops(func(_ Time, _ Hop, _ *Packet, ok bool) {
		if ok {
			delivered++
		}
	})
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if res, err := snap.Collect(); err != nil || res == nil {
		t.Fatalf("snapshot did not complete: res=%v err=%v", res, err)
	}

	traces := d.Traces()
	if len(traces) != 1 {
		t.Fatalf("reconstructed %d traces, want 1 (one injection)", len(traces))
	}
	tr := traces[0]
	if !tr.Complete {
		t.Fatalf("trace %d not complete: %d roots over %d spans", tr.Trace, len(tr.Roots), tr.Spans)
	}
	if delivered == 0 {
		t.Fatal("hop observer saw no delivered hops")
	}
	if tr.Spans != delivered+1 {
		t.Fatalf("trace has %d spans, want delivered hops + root = %d + 1", tr.Spans, delivered)
	}
	if tr.CrossLane < 1 {
		t.Fatalf("trace has %d cross-shard edges, want >= 1 on a 4-shard ring", tr.CrossLane)
	}
	if recs := d.SpanRecords(); len(recs) != tr.Spans {
		t.Fatalf("SpanRecords() returned %d records, trace holds %d", len(recs), tr.Spans)
	}
}

// TestTimelineDeterministic runs the same sharded traced workload twice
// and requires byte-identical span dumps: span ids, ordering and edges
// must not depend on goroutine interleaving.
func TestTimelineDeterministic(t *testing.T) {
	run := func() []byte {
		g := Ring(20)
		d := Deploy(g, WithShards(4), WithTimeline(1<<14))
		snap, err := d.InstallSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Trigger(0, 0)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.WriteSpanJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty span dump")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical traced runs produced different span dumps")
	}
}

// TestTimelineDisabled pins the opt-in contract: without WithTimeline
// there are no spans, no traces, and /traces has nothing to serve from
// this deployment.
func TestTimelineDisabled(t *testing.T) {
	d := Deploy(Ring(8))
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if recs := d.SpanRecords(); recs != nil {
		t.Fatalf("SpanRecords() = %d records without WithTimeline, want nil", len(recs))
	}
	if tr := d.Traces(); tr != nil {
		t.Fatalf("Traces() = %d trees without WithTimeline, want nil", len(tr))
	}
}

// TestConcurrentScrapesDuringShardedRun exercises the whole telemetry
// HTTP surface while a sharded network is actively running: /metrics
// scrapes must stay well-formed and monotone (counters only ever grow),
// /healthz and /debug/vars must answer JSON, and /traces must serve the
// registered timeline — all race-clean against the worker lanes (run
// with -race in CI).
func TestConcurrentScrapesDuringShardedRun(t *testing.T) {
	srv := httptest.NewServer(telemetry.Handler())
	defer srv.Close()

	g := Ring(16)
	d := Deploy(g, WithShards(4), WithTimeline(0))
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return nil, nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("GET %s: read: %v", path, err)
			return nil, nil
		}
		return resp, body
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := get("/metrics")
			if resp == nil {
				return
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Errorf("/metrics Content-Type = %q", ct)
				return
			}
			hops := int64(-1)
			sc := bufio.NewScanner(bytes.NewReader(body))
			for sc.Scan() {
				line := sc.Text()
				if rest, ok := strings.CutPrefix(line, "smartsouth_hops_total "); ok {
					v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
					if err != nil {
						t.Errorf("/metrics: bad hops_total %q: %v", rest, err)
						return
					}
					hops = v
				}
			}
			if hops < 0 {
				t.Error("/metrics: smartsouth_hops_total missing")
				return
			}
			if hops < last {
				t.Errorf("/metrics: hops_total went backwards mid-run: %d -> %d", last, hops)
				return
			}
			last = hops
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := get("/healthz")
			if resp == nil {
				return
			}
			var h struct {
				Status string `json:"status"`
				Shards int64  `json:"shards"`
			}
			if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
				t.Errorf("/healthz: status=%q err=%v", h.Status, err)
				return
			}
			if resp, body = get("/debug/vars"); resp == nil {
				return
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("/debug/vars Content-Type = %q", ct)
				return
			}
			if !json.Valid(body) {
				t.Error("/debug/vars: invalid JSON")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := get("/traces")
			if resp == nil {
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/traces status = %d", resp.StatusCode)
				return
			}
			var events []map[string]any
			if err := json.Unmarshal(body, &events); err != nil {
				t.Errorf("/traces: not a JSON array: %v", err)
				return
			}
		}
	}()

	iters := 30
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		snap.Trigger(i%g.NumNodes(), d.Net.Sim.Now()+1)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
