package core

import (
	"math/rand"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// linearRef is the reference Lookup: first match over the table's
// entries in match order (priority desc, insertion asc).
func linearRef(ft *openflow.FlowTable, p *openflow.Packet) *openflow.FlowEntry {
	for _, e := range ft.Entries() {
		if e.Match.Matches(p) {
			return e
		}
	}
	return nil
}

// TestCompiledDispatchMatchesLinearBothBackends lowers real programs
// with both backends, then replays random packets through every
// installed flow table, asserting the compiled matcher picks exactly the
// entry the linear reference scan picks. This is the end-to-end
// counterpart of the white-box fuzz in internal/openflow: the tables
// here are the ones the compiler actually emits (per-port state rules,
// group indirections, punt rules), not synthetic ones.
func TestCompiledDispatchMatchesLinearBothBackends(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.RandomConnected(12, 8, 3)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		if _, err := InstallSnapshot(c, g, 0, WithBackend(be)); err != nil {
			t.Fatal(err)
		}
		if _, err := InstallTraversal(c, g, 1, WithBackend(be)); err != nil {
			t.Fatal(err)
		}

		r := rand.New(rand.NewSource(7))
		eths := []uint16{EthSnapshot, EthTraversal, 0x7777}
		ports := []int{openflow.PortController, 1, 2, 3, 4, 5}
		tables, lookups := 0, 0
		for sw := 0; sw < net.NumSwitches(); sw++ {
			s := net.Switch(sw)
			for _, id := range s.TableIDs() {
				ft := s.Table(id)
				if ft.Len() == 0 {
					continue
				}
				tables++
				before := ft.ScanStats().MatcherLookups
				for i := 0; i < 200; i++ {
					p := openflow.NewPacket(eths[r.Intn(len(eths))], 8)
					p.InPort = ports[r.Intn(len(ports))]
					p.TTL = uint8(r.Intn(3))
					r.Read(p.Tag)
					want := linearRef(ft, p)
					if got := ft.Lookup(p); got != want {
						t.Fatalf("%s: switch %d table %d pkt %d: compiled chose %v, reference %v (eth=%#x in=%d tag=%x)",
							be.Name(), sw, id, i, got, want, p.EthType, p.InPort, p.Tag)
					}
					lookups++
				}
				if n := ft.ScanStats().MatcherLookups - before; n != 200 {
					t.Fatalf("%s: switch %d table %d: matcher served %d of 200 lookups", be.Name(), sw, id, n)
				}
			}
		}
		if tables == 0 || lookups == 0 {
			t.Fatalf("%s: no compiled tables exercised", be.Name())
		}
	})
}
