package openflow

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLookup is the reference semantics of Lookup: first match over the
// full entry list, which FlowTable keeps in (priority desc, insertion
// asc) order. The compiled matcher must agree with it on every packet.
func refLookup(t *FlowTable, p *Packet) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.Matches(p) {
			return e
		}
	}
	return nil
}

// fuzzCfg shapes one random-table population so the generator can aim at
// specific matcher paths: small vs spilled EtherType sets, small-array vs
// map value splits, masked criteria that are forced onto residual lists,
// port-wildcard entries that get merged into every named port's node.
type fuzzCfg struct {
	name      string
	eths      int // distinct EtherTypes in play
	ports     int // distinct exact ingress ports in play
	entries   int
	values    int     // cardinality of the keyed field's values
	pWildEth  float64 // probability an entry wildcards the EtherType
	pWildPort float64 // probability an entry wildcards the ingress port
	pMasked   float64 // probability a field criterion is masked
	pTTL      float64 // probability an entry constrains the TTL
	pField2   float64 // probability of a second field criterion
}

var fuzzCfgs = []fuzzCfg{
	// The compiled-program shape: one service EtherType, port-keyed
	// entries over a low-cardinality state byte → small splits.
	{name: "compiled-shape", eths: 1, ports: 4, entries: 24, values: 5,
		pWildPort: 0.2, pField2: 0.5},
	// Enough distinct values to spill the split into the vals map.
	{name: "map-split", eths: 2, ports: 3, entries: 60, values: 40,
		pWildPort: 0.2, pField2: 0.3},
	// Enough EtherTypes to spill the matcher's eth index into a map.
	{name: "eth-spill", eths: smallEthMax + 8, ports: 2, entries: 120,
		values: 4, pWildPort: 0.3, pField2: 0.3},
	// Adversarial soup: wildcards, masks and TTL constraints everywhere,
	// exercising the wild list, the residual lists and the residTop skip.
	{name: "soup", eths: 3, ports: 4, entries: 80, values: 6,
		pWildEth: 0.15, pWildPort: 0.4, pMasked: 0.3, pTTL: 0.2, pField2: 0.6},
}

var fuzzFields = []Field{
	{Name: "S", Off: 0, Bits: 8},
	{Name: "C", Off: 8, Bits: 6},
	{Name: "W", Off: 14, Bits: 10},
}

func randMatch(r *rand.Rand, cfg fuzzCfg) Match {
	m := MatchAll()
	if r.Float64() >= cfg.pWildEth {
		m.EthType = 0x8800 + r.Intn(cfg.eths)
	}
	if r.Float64() >= cfg.pWildPort {
		m.InPort = 1 + r.Intn(cfg.ports)
	}
	if r.Float64() < cfg.pTTL {
		m.TTL = r.Intn(4)
	}
	nf := 1
	if r.Float64() < cfg.pField2 {
		nf = 2
	}
	for i := 0; i < nf; i++ {
		f := fuzzFields[(r.Intn(len(fuzzFields)))]
		fm := FieldMatch{F: f, Value: uint64(r.Intn(cfg.values))}
		if r.Float64() < cfg.pMasked {
			fm.Mask = uint64(r.Intn(int(f.Max()))) | 1
			fm.Value = uint64(r.Int63()) & fm.Mask
		}
		m.Fields = append(m.Fields, fm)
	}
	return m
}

func randFuzzTable(r *rand.Rand, cfg fuzzCfg) *FlowTable {
	t := &FlowTable{ID: 0}
	for i := 0; i < cfg.entries; i++ {
		t.Add(&FlowEntry{
			Priority: r.Intn(5), // deliberately collision-heavy
			Match:    randMatch(r, cfg),
			Cookie:   fmt.Sprintf("e%d", i),
			Goto:     NoGoto,
		})
	}
	return t
}

func randFuzzPacket(r *rand.Rand, cfg fuzzCfg) *Packet {
	p := NewPacket(uint16(0x8800+r.Intn(cfg.eths+1)), 3)
	p.InPort = 1 + r.Intn(cfg.ports+2) // sometimes a port no entry names
	p.TTL = uint8(r.Intn(5))
	r.Read(p.Tag)
	for _, f := range fuzzFields {
		if r.Intn(2) == 0 {
			p.Store(f, uint64(r.Intn(cfg.values)))
		}
	}
	return p
}

// TestMatcherDifferentialFuzz replays random packets through Lookup and
// the reference linear scan on randomly generated tables, asserting both
// pick the same entry — including priority ties, where insertion order
// decides.
func TestMatcherDifferentialFuzz(t *testing.T) {
	for _, cfg := range fuzzCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 16; seed++ {
				r := rand.New(rand.NewSource(seed))
				ft := randFuzzTable(r, cfg)
				for i := 0; i < 500; i++ {
					p := randFuzzPacket(r, cfg)
					if got, want := ft.Lookup(p), refLookup(ft, p); got != want {
						t.Fatalf("seed %d pkt %d: Lookup chose %v, reference %v (pkt eth=%#x in=%d ttl=%d tag=%x)",
							seed, i, got, want, p.EthType, p.InPort, p.TTL, p.Tag)
					}
				}
				if st := ft.ScanStats(); st.MatcherLookups != 500 {
					t.Fatalf("seed %d: %d matcher lookups, want 500", seed, st.MatcherLookups)
				}
			}
		})
	}
}

// TestMatcherMutationFuzz interleaves every FlowTable mutator with
// lookups on random tables and checks each lookup against the reference
// scan: a matcher compiled before a mutation must never serve a lookup
// after it.
func TestMatcherMutationFuzz(t *testing.T) {
	for _, cfg := range fuzzCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				ft := randFuzzTable(r, cfg)
				next := cfg.entries
				entry := func() *FlowEntry {
					next++
					return &FlowEntry{Priority: r.Intn(5), Match: randMatch(r, cfg),
						Cookie: fmt.Sprintf("e%d", next), Goto: NoGoto}
				}
				lookups := uint64(0)
				for step := 0; step < 200; step++ {
					var op string
					switch k := r.Intn(20); {
					case k < 6:
						op = "Add"
						ft.Add(entry())
					case k < 10:
						op = "AddBatch"
						batch := make([]*FlowEntry, r.Intn(6))
						for i := range batch {
							batch[i] = entry()
						}
						ft.AddBatch(batch)
					case k < 13:
						op = "RemoveIf"
						prio := r.Intn(5)
						ft.RemoveIf(func(e *FlowEntry) bool { return e.Priority == prio && r.Intn(2) == 0 })
					case k < 16:
						op = "RemoveByCookiePrefix"
						ft.RemoveByCookiePrefix(fmt.Sprintf("e%d", r.Intn(next)))
					case k < 17:
						op = "Clear"
						ft.Clear()
					default:
						op = "none"
					}
					for i := 0; i < 10; i++ {
						p := randFuzzPacket(r, cfg)
						if got, want := ft.Lookup(p), refLookup(ft, p); got != want {
							t.Fatalf("seed %d step %d after %s: Lookup chose %v, reference %v",
								seed, step, op, got, want)
						}
						lookups++
					}
				}
				if st := ft.ScanStats(); st.MatcherLookups != lookups {
					t.Fatalf("seed %d: %d matcher lookups, want %d", seed, st.MatcherLookups, lookups)
				}
			}
		})
	}
}

// TestMatcherObservesMutation pins the lifecycle: every mutator drops the
// compiled matcher, and the next lookup compiles one that sees the edit.
func TestMatcherObservesMutation(t *testing.T) {
	ft := &FlowTable{ID: 0}
	mk := func(prio int, cookie string) *FlowEntry {
		m := MatchEth(0x8801)
		m.InPort = 1
		return &FlowEntry{Priority: prio, Match: m, Cookie: cookie, Goto: NoGoto}
	}
	p := NewPacket(0x8801, 2)
	p.InPort = 1
	step := func(what string, mutate func(), want *FlowEntry) {
		t.Helper()
		mutate()
		if ft.m != nil {
			t.Fatalf("%s: matcher survived the mutation", what)
		}
		if got := ft.Lookup(p); got != want {
			t.Fatalf("%s: Lookup chose %v, want %v", what, got, want)
		}
		if ft.m == nil {
			t.Fatalf("%s: Lookup did not compile the matcher", what)
		}
	}
	a, b, c := mk(1, "a"), mk(2, "b"), mk(3, "c")
	step("Add", func() { ft.Add(a) }, a)
	step("higher-priority Add", func() { ft.Add(b) }, b)
	step("RemoveByCookiePrefix", func() { ft.RemoveByCookiePrefix("b") }, a)
	step("AddBatch", func() { ft.AddBatch([]*FlowEntry{c, b}) }, c)
	step("RemoveIf", func() { ft.RemoveIf(func(e *FlowEntry) bool { return e == c }) }, b)
	step("Clear", func() { ft.Clear() }, nil)
	if st := ft.ScanStats(); st.MatcherLookups != 6 || st.StateLookups != 0 {
		t.Fatalf("ScanStats = %+v, want 6 matcher lookups", st)
	}
}
