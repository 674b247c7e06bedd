package metrics

import (
	"encoding/json"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// transmit sends one packet of EtherType eth across the first link of
// switch 0 at simulation time at, and returns its size in bytes. The
// networks here use 1ns links, so the run ends before the next at.
func transmit(t *testing.T, nw *network.Network, at network.Time, eth uint16) int {
	t.Helper()
	pkt := openflow.NewPacket(eth, 25)
	nw.InjectActions(0, []openflow.Action{openflow.Output{Port: 1}}, pkt, at)
	if _, err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	return pkt.Size()
}

func TestRegistryAttribution(t *testing.T) {
	nw := network.New(topo.Line(2), network.Options{LinkDelay: 1})
	r := NewRegistry(nw)
	a := r.Register("snapshot", 0, 1, 0x8802)
	b := r.Register("blackhole", 1, 1, 0x8805, 0x8808)

	// EtherType ownership: first registrant wins.
	r.Register("imposter", 2, 1, 0x8802)
	if r.ByEth(0x8802) != a {
		t.Fatal("first EtherType registrant must win")
	}

	size := transmit(t, nw, 150, 0x8802)
	transmit(t, nw, 300, 0x8808)
	transmit(t, nw, 999, 0xFFFF) // unclaimed: dropped silently
	r.NotePacketOut(100, 0x8802, 50)
	r.NoteHostInject(200, 0x8805, 60)
	r.NotePacketIn(900, 0x8802, 70)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d services", len(snap))
	}
	sa, sb := snap[0], snap[1]
	if sa.Service != "snapshot" || sb.Service != "blackhole" {
		t.Fatalf("snapshot order: %s, %s (want by slot)", sa.Service, sb.Service)
	}
	if sa.PacketOuts != 1 || sa.PacketIns != 1 || sa.TriggerPackets != 1 {
		t.Fatalf("snapshot counters: %+v", sa)
	}
	if sa.OutBandMsgs != 2 || sa.OutBandBytes != 120 {
		t.Fatalf("out-band: %d msgs %d bytes", sa.OutBandMsgs, sa.OutBandBytes)
	}
	if sa.InBandMsgs != 1 || sa.InBandBytes != size {
		t.Fatalf("in-band: %+v", sa)
	}
	if sa.FirstAt != 100 || sa.LastAt != 900 || sa.WallClock != 800 {
		t.Fatalf("wallclock: first=%d last=%d wall=%d", sa.FirstAt, sa.LastAt, sa.WallClock)
	}
	if sb.HostInjects != 1 || sb.TriggerPackets != 1 || sb.InBandMsgs != 1 {
		t.Fatalf("blackhole counters: %+v", sb)
	}
	if sb.FirstAt != 200 || sb.LastAt != 300 {
		t.Fatalf("blackhole wallclock: first=%d last=%d", sb.FirstAt, sb.LastAt)
	}
	_ = b
}

func TestRegistryRelease(t *testing.T) {
	nw := network.New(topo.Line(2), network.Options{LinkDelay: 1})
	r := NewRegistry(nw)
	r.Register("chaincast", 0, 2, 0x8809)
	keep := r.Register("anycast", 2, 1, 0x8803)
	r.Release(1) // any covered slot releases the whole service
	if r.ByEth(0x8809) != nil {
		t.Fatal("released EtherType still claimed")
	}
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Service != "anycast" {
		t.Fatalf("snapshot after release: %+v", snap)
	}
	transmit(t, nw, 5, 0x8809) // unclaimed while released: dropped
	again := r.Register("chaincast", 3, 2, 0x8809)
	transmit(t, nw, 10, 0x8809)
	if r.ByEth(0x8809) != again || again.InBandMsgs != 1 || again.FirstAt != 10 || keep.InBandMsgs != 0 {
		t.Fatalf("re-registered service not credited: %+v", again)
	}
	r.Release(7) // no occupant: no-op
	if len(r.Snapshot()) != 2 {
		t.Fatal("releasing an empty slot dropped an entry")
	}
}

func TestRegistryInstallAttributionBySlot(t *testing.T) {
	r := NewRegistry(network.New(topo.Line(2), network.Options{}))
	r.Register("chaincast", 0, 2, 0x8809) // spans slots 0 and 1
	r.Register("critical", 2, 1, 0x8806)

	p := openflow.NewProgram("chaincast", 1) // second stage, covered by span
	p.Ensure(0, 2)
	p.AddFlow(0, 11, &openflow.FlowEntry{Cookie: "x"})
	p.AddGroup(0, &openflow.GroupEntry{ID: 1 << 20})
	r.NoteInstall(p)

	snap := r.Snapshot()
	if snap[0].FlowMods != 1 || snap[0].GroupMods != 1 || snap[0].InstallTxns != 1 {
		t.Fatalf("span attribution: %+v", snap[0])
	}
	if snap[1].FlowMods != 0 {
		t.Fatal("critical must not be credited")
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry(network.New(topo.Line(2), network.Options{}))
	r.Register("snapshot", 0, 1, 0x8802)
	r.NotePacketOut(1, 0x8802, 10)
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []ServiceMetrics
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Service != "snapshot" || decoded[0].PacketOuts != 1 {
		t.Fatalf("round trip: %+v", decoded)
	}
}

func TestRegistryReset(t *testing.T) {
	nw := network.New(topo.Line(2), network.Options{LinkDelay: 1})
	r := NewRegistry(nw)
	r.Register("snapshot", 0, 1, 0x8802)
	r.NotePacketOut(1, 0x8802, 10)
	transmit(t, nw, 2, 0x8802)
	p := openflow.NewProgram("snapshot", 0)
	p.Ensure(0, 2)
	p.AddFlow(0, 1, &openflow.FlowEntry{Cookie: "k"})
	r.NoteInstall(p)
	r.Reset()
	m := r.Snapshot()[0]
	if m.PacketOuts != 0 || m.InBandMsgs != 0 || m.WallClock != 0 {
		t.Fatalf("runtime counters survive reset: %+v", m)
	}
	if m.FlowMods != 1 {
		t.Fatal("install counters must survive reset")
	}
}

// TestMeteredControlPlane runs a real snapshot through the decorator and
// checks installs and trigger packets are attributed while the underlying
// controller still sees everything.
func TestMeteredControlPlane(t *testing.T) {
	g := topo.Ring(6)
	nw := network.New(g, network.Options{})
	ctl := controller.New(nw)
	reg := NewRegistry(nw)
	cp := Meter(ctl, reg)

	reg.Register("snapshot", 0, 1, core.EthSnapshot)
	snap, err := core.InstallSnapshot(cp, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	if _, err := cp.RunNetwork(); err != nil {
		t.Fatal(err)
	}

	m := reg.Snapshot()[0]
	if m.FlowMods == 0 || m.GroupMods == 0 || m.InstallTxns != g.NumNodes() {
		t.Fatalf("install attribution: %+v", m)
	}
	if m.FlowMods != ctl.Stats.FlowMods || m.GroupMods != ctl.Stats.GroupMods {
		t.Fatalf("decorator and controller disagree: %d/%d vs %d/%d",
			m.FlowMods, m.GroupMods, ctl.Stats.FlowMods, ctl.Stats.GroupMods)
	}
	if m.PacketOuts != 1 || m.TriggerPackets != 1 {
		t.Fatalf("trigger attribution: %+v", m)
	}
	if res, err := snap.Collect(); err != nil || res == nil || len(res.Nodes) != 6 {
		t.Fatalf("service broken under metering: %v %v", res, err)
	}
}
