package smartsouth

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartsouth/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// ring20SweepFingerprint deploys snapshot + anycast + priocast + critical
// on Ring(20) with a fixed seed, runs all four to completion, and renders
// every observable the simulator produces — the exact hop order, the
// delivered/packet-in sequence, the per-EtherType accounting, the recorded
// hop-trace events and the per-service metrics — into one deterministic
// string.
func ring20SweepFingerprint(extra ...Option) string {
	g := Ring(20)
	opts := append([]Option{WithSeed(7), WithTrace(8192)}, extra...)
	d := Deploy(g, opts...)

	var b strings.Builder

	d.Net.ObserveHops(func(_ Time, h Hop, pkt *Packet, delivered bool) {
		fmt.Fprintf(&b, "hop %d:%d->%d:%d eth=%#04x size=%d delivered=%v\n",
			h.From, h.FromPort, h.To, h.ToPort, pkt.EthType, pkt.Size(), delivered)
	})
	d.OnDeliver(func(sw int, pkt *Packet) {
		fmt.Fprintf(&b, "self sw=%d eth=%#04x labels=%d\n", sw, pkt.EthType, len(pkt.Labels))
	})

	snap, err := d.InstallSnapshot()
	if err != nil {
		panic(err)
	}
	last := 0
	for v := 0; v < g.NumNodes(); v++ {
		last = v
	}
	any, err := d.InstallAnycast(map[uint32][]int{1: {last}})
	if err != nil {
		panic(err)
	}
	pc, err := d.InstallPriocast(map[uint32][]PrioMember{1: {
		{Node: 5, Prio: 2}, {Node: 15, Prio: 9}}})
	if err != nil {
		panic(err)
	}
	cr, err := d.InstallCritical()
	if err != nil {
		panic(err)
	}

	snap.Trigger(0, 0)
	any.Send(0, 1, nil, 0)
	pc.Send(0, 1, nil, 0)
	cr.Check(0, 0)
	if err := d.Run(); err != nil {
		panic(err)
	}

	if res, err := snap.Collect(); err != nil || res == nil {
		panic(fmt.Sprintf("snapshot: %v %v", res, err))
	} else {
		fmt.Fprintf(&b, "snapshot nodes=%d edges=%d\n", len(res.Nodes), len(res.Edges))
	}
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

	for _, ev := range d.TraceEvents() {
		fmt.Fprintf(&b, "trace %s\n", ev.String())
	}

	for _, m := range d.MetricsSnapshot() {
		fmt.Fprintf(&b, "metrics svc=%s slot=%d inband=%d/%dB pktins=%d trig=%d wall=%d\n",
			m.Service, m.Slot, m.InBandMsgs, m.InBandBytes, m.PacketIns,
			m.TriggerPackets, int64(m.WallClock))
		for _, h := range m.RuleHits {
			if h.Packets > 0 {
				fmt.Fprintf(&b, "hit sw=%d t%d %s = %d\n", h.Switch, h.Table, h.Cookie, h.Packets)
			}
		}
	}
	fmt.Fprintf(&b, "4E-2n+2=%d\n", 4*g.NumEdges()-2*g.NumNodes()+2)
	fmt.Fprintf(&b, "snapshot-inband=%d\n", msgs[core.EthSnapshot])
	return b.String()
}

// TestDeterminismGolden pins the simulator's observable behaviour —
// byte-for-byte — to a golden file captured before the zero-alloc event
// loop, packet pooling and flow-table indexing changes. Any divergence in
// hop order, accounting, trace content or metrics under a fixed seed fails
// this test.
func TestDeterminismGolden(t *testing.T) {
	// The golden fingerprint records of13 hop sizes (DFS tag bytes in
	// flight); the repeatability test below runs under whatever backend
	// SMARTSOUTH_BACKEND selects.
	got := ring20SweepFingerprint(WithBackend("of13"))
	path := filepath.Join("testdata", "ring20_sweep.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("fingerprint diverges from golden at line %d:\n got: %s\nwant: %s",
					i+1, g[i], w[i])
			}
		}
		t.Fatalf("fingerprint length %d, golden %d", len(got), len(want))
	}
}

// TestDeterminismRepeatable runs the same fixed-seed sweep twice in one
// process and asserts identical fingerprints — catching any use of global
// mutable state (e.g. the packet pool) that could leak between runs.
func TestDeterminismRepeatable(t *testing.T) {
	a := ring20SweepFingerprint()
	b := ring20SweepFingerprint()
	if a != b {
		t.Fatal("two identical-seed sweeps produced different fingerprints")
	}
}
