package smartsouth

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartsouth/internal/core"
)

// TestShardGoldenSingleShard pins the sharded engine's single-shard mode
// to the same golden file as the classic loop: WithShards(1) must be
// byte-identical to not passing the option at all, down to hop order,
// trace content and metrics.
func TestShardGoldenSingleShard(t *testing.T) {
	got := ring20SweepFingerprint(WithBackend("of13"), WithShards(1))
	want, err := os.ReadFile(filepath.Join("testdata", "ring20_sweep.golden"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("WithShards(1) diverges from golden at line %d:\n got: %s\nwant: %s",
					i+1, g[i], w[i])
			}
		}
		t.Fatalf("fingerprint length %d, golden %d", len(got), len(want))
	}
}

// table2Fingerprint deploys snapshot + anycast + priocast + critical on
// the graph, runs one request of each, and renders every Table-2
// observable that must not depend on the shard count: per-EtherType
// in-band accounting, out-of-band controller counters, service results
// and the final clock. Hop-level orderings are deliberately excluded —
// simultaneous independent events may interleave differently across
// shard counts; the paper's counters may not.
func table2Fingerprint(t *testing.T, g *Graph, shards int) string {
	t.Helper()
	d := Deploy(g, WithSeed(7), WithShards(shards))

	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	any, err := d.InstallAnycast(map[uint32][]int{1: {g.NumNodes() - 1}})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := d.InstallPriocast(map[uint32][]PrioMember{1: {
		{Node: g.NumNodes() / 3, Prio: 2}, {Node: g.NumNodes() / 2, Prio: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := d.InstallCritical()
	if err != nil {
		t.Fatal(err)
	}

	snap.Trigger(0, 0)
	any.Send(0, 1, nil, 0)
	pc.Send(0, 1, nil, 0)
	cr.Check(0, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	res, err := snap.Collect()
	if err != nil || res == nil {
		t.Fatalf("snapshot: %v %v", res, err)
	}
	fmt.Fprintf(&b, "snapshot nodes=%d edges=%d\n", len(res.Nodes), len(res.Edges))
	crit, ok := cr.Verdict()
	fmt.Fprintf(&b, "critical verdict=%v ok=%v\n", crit, ok)
	fmt.Fprintf(&b, "simtime=%d\n", int64(d.Net.Sim.Now()))

	msgs, bytes := d.Net.InBandMsgs(), d.Net.InBandBytes()
	eths := make([]int, 0, len(msgs))
	for eth := range msgs {
		eths = append(eths, int(eth))
	}
	sort.Ints(eths)
	for _, eth := range eths {
		fmt.Fprintf(&b, "inband eth=%#04x msgs=%d bytes=%d\n",
			eth, msgs[uint16(eth)], bytes[uint16(eth)])
	}
	fmt.Fprintf(&b, "total-inband=%d\n", d.Net.TotalInBand())
	fmt.Fprintf(&b, "outband msgs=%d bytes=%d pktins=%d\n",
		d.Ctl.Stats.RuntimeMsgs(), d.Ctl.Stats.OutBandBytes, d.Ctl.Stats.PacketIns)

	// The paper's Table-2 bound: a DFS traversal costs at most 4|E|
	// in-band messages. Every traversal-based service must respect it.
	bound := 4 * g.NumEdges()
	for _, eth := range []uint16{core.EthSnapshot, core.EthCritical} {
		if m := msgs[eth]; m > bound {
			t.Errorf("shards=%d eth=%#04x in-band msgs %d exceed 4|E|=%d", shards, eth, m, bound)
		}
	}
	return b.String()
}

// TestShardCountInvariance runs the same deployment under 1, 2, 4 and 8
// shards and asserts identical Table-2 counters: partitioning the
// simulation must be invisible in every figure the paper reports.
func TestShardCountInvariance(t *testing.T) {
	topos := []struct {
		name string
		g    *Graph
	}{
		{"ring20", Ring(20)},
		{"fattree4", mustGraph(FatTree(4))},
		{"isp", mustGraph(ISP(8, 6, 3))},
	}
	for _, tc := range topos {
		want := table2Fingerprint(t, tc.g, 1)
		for _, shards := range []int{2, 4, 8} {
			if got := table2Fingerprint(t, tc.g, shards); got != want {
				t.Errorf("%s: shards=%d diverged from single loop:\n got:\n%s\nwant:\n%s",
					tc.name, shards, got, want)
			}
		}
	}
}

func mustGraph(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// snapDigest runs one splitting-snapshot traversal on an already-deployed
// network and folds every per-run Table-2 observable — in-band accounting
// deltas, packet-ins, snapshot result, fragment count, run duration —
// into one FNV-64 digest. The 4|E| message bound is asserted along the
// way. Accounting is reset first, so the digest is a pure per-run
// quantity and repeat runs on the same deployment are comparable (the
// monitoring-loop idiom: reset, trigger, run, collect).
func snapDigest(t *testing.T, d *Deployment, snap *SnapshotSplit, edges int) uint64 {
	t.Helper()
	d.Net.ResetAccounting()
	d.Ctl.ResetRuntimeStats()
	start := d.Net.Sim.Now()
	snap.Trigger(0, start+1)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	res, frags, err := snap.Collect()
	if err != nil || res == nil {
		t.Fatalf("snapshot: %v %v", res, err)
	}
	msgs, bytes := d.Net.InBandMsgs(), d.Net.InBandBytes()
	if m, bound := msgs[core.EthSnapSplit], 4*edges; m > bound {
		t.Errorf("snapshot in-band msgs %d exceed 4|E|=%d", m, bound)
	}
	eths := make([]int, 0, len(msgs))
	for eth := range msgs {
		eths = append(eths, int(eth))
	}
	sort.Ints(eths)
	h := fnv.New64a()
	for _, eth := range eths {
		fmt.Fprintf(h, "%d=%d/%d;", eth, msgs[uint16(eth)], bytes[uint16(eth)])
	}
	fmt.Fprintf(h, "nodes=%d edges=%d frags=%d pktins=%d took=%d",
		len(res.Nodes), len(res.Edges), frags, d.Ctl.Stats.PacketIns, int64(d.Net.Sim.Now()-start))
	return h.Sum64()
}

// TestSharded10kDeterministicDigest builds a 10 000-switch ISP topology,
// deploys the splitting snapshot once under 8 shards, runs the full
// traversal three times, and asserts the per-run digests agree —
// large-scale determinism, not just small-graph luck. Installing ~700k
// rules dominates the wall clock at this size, so the three runs share
// one deployment; fresh-deployment shard invariance is pinned separately
// by TestShardCountInvariance, and a single-loop deployment here pins
// the 10k counters to the classic engine too.
func TestSharded10kDeterministicDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-switch digest skipped in -short mode")
	}
	g := mustGraph(ISP(500, 20, 3))
	if g.NumNodes() != 10_000 {
		t.Fatalf("ISP(500,20) has %d nodes, want 10000", g.NumNodes())
	}
	d := Deploy(g, WithSeed(7), WithShards(8))
	snap, err := d.InstallSnapshotSplit(4)
	if err != nil {
		t.Fatal(err)
	}
	first := snapDigest(t, d, snap, g.NumEdges())
	for run := 1; run < 3; run++ {
		if dig := snapDigest(t, d, snap, g.NumEdges()); dig != first {
			t.Fatalf("run %d digest %#x, want %#x", run, dig, first)
		}
	}
	ds := Deploy(g, WithSeed(7), WithShards(1))
	ss, err := ds.InstallSnapshotSplit(4)
	if err != nil {
		t.Fatal(err)
	}
	if dig := snapDigest(t, ds, ss, g.NumEdges()); dig != first {
		t.Fatalf("single-loop digest %#x, sharded %#x — Table-2 counters must agree", dig, first)
	}
}

// TestMetricsSnapshotShardInvariance pins per-service timing to the
// simulation, not to the lane a hop happened to run on: snapshot then
// anycast on FatTree(4) must report the same FirstAt/LastAt/WallClock and
// in-band counts at every shard count.
func TestMetricsSnapshotShardInvariance(t *testing.T) {
	g := mustGraph(FatTree(4))
	render := func(shards int) string {
		d := Deploy(g, WithSeed(7), WithShards(shards))
		snap, err := d.InstallSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Trigger(0, 0)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		any, err := d.InstallAnycast(map[uint32][]int{1: {g.NumNodes() - 1}})
		if err != nil {
			t.Fatal(err)
		}
		any.Send(0, 1, nil, d.Net.Sim.Now())
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, m := range d.MetricsSnapshot() {
			if m.WallClock == 0 || m.InBandMsgs == 0 {
				t.Errorf("shards=%d %s: idle (wall=%d inband=%d)", shards, m.Service, m.WallClock, m.InBandMsgs)
			}
			fmt.Fprintf(&b, "%s first=%d last=%d wall=%d inband=%d\n",
				m.Service, m.FirstAt, m.LastAt, m.WallClock, m.InBandMsgs)
		}
		return b.String()
	}
	want := render(1)
	for _, shards := range []int{2, 4} {
		if got := render(shards); got != want {
			t.Errorf("shards=%d diverged from single loop:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestHopTraceShardInvariance pins hop-trace timestamps to the lane that
// ran each execution: snapshot then anycast on FatTree(4), traced with a
// ring larger than the run, must record the same events at every shard
// count once sorted by (At, Switch, InPort). Seq, the order in which the
// lanes' observer calls happened to serialize, is left out.
func TestHopTraceShardInvariance(t *testing.T) {
	g := mustGraph(FatTree(4))
	const capacity = 1 << 12
	render := func(shards int) []string {
		d := Deploy(g, WithSeed(7), WithShards(shards), WithTrace(capacity))
		snap, err := d.InstallSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Trigger(0, 0)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		any, err := d.InstallAnycast(map[uint32][]int{1: {g.NumNodes() - 1}})
		if err != nil {
			t.Fatal(err)
		}
		any.Send(0, 1, nil, d.Net.Sim.Now())
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		if d.Trace.Dropped() > 0 {
			t.Fatalf("shards=%d: ring of %d dropped %d events", shards, capacity, d.Trace.Dropped())
		}
		evs := d.TraceEvents()
		sort.SliceStable(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.Switch != b.Switch {
				return a.Switch < b.Switch
			}
			return a.InPort < b.InPort
		})
		out := make([]string, len(evs))
		for i, ev := range evs {
			ev.Seq = 0
			out[i] = ev.String()
		}
		return out
	}
	want := render(1)
	for _, shards := range []int{2, 4} {
		got := render(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d events, single loop %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: event %d\n got: %s\nwant: %s", shards, i, got[i], want[i])
			}
		}
	}
}
