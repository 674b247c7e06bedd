package smartsouth

import (
	"testing"

	"smartsouth/internal/core"
	"smartsouth/internal/openflow"
)

// TestLookupZeroAllocOnTemplate pins the compiled flow-table matcher's
// zero-allocation property against a real installed SmartSouth program
// (not a synthetic table): looking up a traversal packet in the snapshot
// template's entry table must not allocate, hit or miss.
func TestLookupZeroAllocOnTemplate(t *testing.T) {
	g := Ring(20)
	d := Deploy(g)
	if _, err := d.InstallSnapshot(); err != nil {
		t.Fatal(err)
	}
	sw := d.Net.Switch(0)
	pkt := openflow.NewPacket(core.EthSnapshot, core.NewLayout(g).TagBytes())
	pkt.InPort = 1

	tbl := sw.Table(0)
	if tbl.Lookup(pkt) == nil {
		t.Fatal("snapshot template has no table-0 entry for a traversal packet on port 1")
	}
	if avg := testing.AllocsPerRun(1000, func() { tbl.Lookup(pkt) }); avg != 0 {
		t.Errorf("Lookup (hit) allocates %.1f allocs/op, want 0", avg)
	}

	miss := openflow.NewPacket(0x7777, 4) // EtherType no service uses
	miss.InPort = 1
	if tbl.Lookup(miss) != nil {
		t.Fatal("unexpected match for foreign EtherType")
	}
	if avg := testing.AllocsPerRun(1000, func() { tbl.Lookup(miss) }); avg != 0 {
		t.Errorf("Lookup (miss) allocates %.1f allocs/op, want 0", avg)
	}
}
