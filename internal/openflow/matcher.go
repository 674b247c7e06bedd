package openflow

import "slices"

// This file implements the compiled dispatch matcher: an immutable
// decision-tree built from a flow table's entries, and the table's only
// lookup structure.
//
// Shape. The tree keys a single flat index on (EtherType, InPort) — every
// node holds the complete candidate set for packets arriving with that
// pair, port-wildcard entries merged in — and then splits each node on
// the full-width-exact tag field that discriminates the most entries (for
// SmartSouth-compiled tables that is the per-service state byte, e.g. the
// C field of the snapshot service). A per-EtherType any-port node serves
// packets on ports no exact entry names, and entries that wildcard the
// EtherType live on a table-level wildcard list. Duplicating the (few)
// port-wildcard entries into every named port's node trades a little
// compile-time memory for one probe on the hot path: the common lookup is
// one node probe plus one value probe, no cross-list merge. Entries the
// node cannot place under a value key fall through to its residual linear
// list. Every list is kept in (priority desc, insertion asc) order, so
// the best of the per-list first matches — combined with better() — is
// exactly the entry a full priority-ordered scan would return.
//
// Criteria already tested by the path to a list are stripped from its
// entries, and what remains is compiled to crit records — bit range,
// mask resolved, value pre-masked — so a probe is a handful of loads
// with no method dispatch. The compiled lists, their criteria and the
// nodes themselves are packed into per-matcher arenas: a lookup's
// pointer chases land in a few contiguous allocations instead of
// per-node slices scattered across the heap, which matters once a sweep
// touches hundreds of switches and their caches are cold.
//
// Lifecycle. The matcher is immutable once built. FlowTable mutators drop
// it, and the next Lookup compiles a fresh one from the ordered entry
// list: a changed table recompiles on its next lookup. There is no
// fallback path and no compile step for callers to remember. Installs
// batch their mutations, so a table compiles once per install, on the
// first packet that reaches it.

// anyInPort is the matcher's key for entries that wildcard the ingress
// port. It cannot collide with a packet's InPort: reserved ports are
// small negative constants and physical ports are small positives.
const anyInPort = int32(-1 << 30)

// ftKey is the exact-match dispatch key of an entry: its EtherType plus,
// where present, its ingress port. Entries that wildcard the EtherType do
// not get a key and live on the wildcard list instead.
type ftKey struct {
	eth int32
	in  int32
}

// keyOf classifies an entry for the matcher's index. ok is false when the
// entry wildcards the EtherType and must go on the wildcard list.
func keyOf(m Match) (k ftKey, ok bool) {
	if m.EthType == AnyEthType {
		return ftKey{}, false
	}
	k = ftKey{eth: int32(m.EthType), in: anyInPort}
	if m.InPort != AnyPort {
		k.in = int32(m.InPort)
	}
	return k, true
}

// better returns the entry that wins overall ordering: higher priority, or
// earlier insertion on a tie. Either argument may be nil.
func better(a, b *FlowEntry) *FlowEntry {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Priority != b.Priority {
		if a.Priority > b.Priority {
			return a
		}
		return b
	}
	if a.seq <= b.seq {
		return a
	}
	return b
}

// crit is one residual field criterion in compiled form: the field
// reduced to its bit range, the mask resolved (a zero FieldMatch mask
// means full width), and the value pre-masked. bits == 0 marks the
// absence of a criterion (no valid field is zero-width).
type crit struct {
	off  int32
	bits int32
	val  uint64
	mask uint64
}

func makeCrit(fm FieldMatch) crit {
	k := fm.mask()
	return crit{off: int32(fm.F.Off), bits: int32(fm.F.Bits), val: fm.Value & k, mask: k}
}

func (c *crit) ok(p *Packet) bool {
	return (Field{Off: int(c.off), Bits: int(c.bits)}).Load(p.Tag)&c.mask == c.val
}

// mEntry is one flow entry reduced to the criteria the matcher's tree
// has not already tested on the way to its list. The first residual
// criterion sits inline (c0) so the common zero- and one-criterion
// probes never chase the extra slice.
type mEntry struct {
	e      *FlowEntry
	inPort int32 // anyInPort when unconstrained or keyed by the path
	ttl    int16 // -1 when wildcarded
	c0     crit
	extra  []crit
}

func (me *mEntry) matches(p *Packet) bool {
	if me.inPort != anyInPort && int(me.inPort) != p.InPort {
		return false
	}
	if me.ttl >= 0 && int16(p.TTL) != me.ttl {
		return false
	}
	if me.c0.bits == 0 {
		return true
	}
	if !me.c0.ok(p) {
		return false
	}
	for i := range me.extra {
		if !me.extra[i].ok(p) {
			return false
		}
	}
	return true
}

// mList is a (priority desc, insertion asc)-ordered list of reduced
// entries; the first match is the best of the list.
type mList []mEntry

func (l mList) first(p *Packet) (*FlowEntry, int) {
	for i := range l {
		if l[i].matches(p) {
			return l[i].e, i + 1
		}
	}
	return nil, len(l)
}

// mNode is the field-test node of one (EtherType, InPort) bucket: when
// split, the entries carrying a full-width exact match on the field at
// (foff, fbits) are keyed by their match value — in the parallel
// keys/lists arrays when the value set is small (a linear scan of a few
// uint64s beats a map probe), in vals otherwise — and resid holds the
// rest. residTop is the highest priority on resid, so a keyed hit that
// outranks all of resid skips the residual scan outright. The field is
// stored as a bare bit range (not a Field, whose diagnostic name would
// double the node's hot cache line).
type mNode struct {
	split    bool
	foff     int32
	fbits    int32
	keys     []uint64 // small splits: keys[i] selects lists[i]
	lists    []mList
	resid    mList
	residTop int
	vals     map[uint64]mList // large splits
}

func (nd *mNode) lookup(p *Packet) (*FlowEntry, int) {
	if !nd.split {
		return nd.resid.first(p)
	}
	v := (Field{Off: int(nd.foff), Bits: int(nd.fbits)}).Load(p.Tag)
	var keyed mList
	if nd.keys != nil {
		for i, k := range nd.keys {
			if k == v {
				keyed = nd.lists[i]
				break
			}
		}
	} else {
		keyed = nd.vals[v]
	}
	best, probed := keyed.first(p)
	if best != nil && (len(nd.resid) == 0 || best.Priority > nd.residTop) {
		// Every residual entry is outranked; ties still scan, since an
		// equal-priority residual entry could win on insertion order.
		return best, probed
	}
	e, n := nd.resid.first(p)
	return better(best, e), probed + n
}

// ethNode groups one exact EtherType's nodes: one per named ingress
// port (parallel ports/pvec arrays, first-seen order) plus the any-port
// node serving ports no exact entry names. any is nil when the
// EtherType has no port-wildcard entries.
type ethNode struct {
	eth   int32
	ports []int32
	pvec  []*mNode
	any   *mNode
}

// smallEthMax is the EtherType-set size up to which the matcher finds
// the ethNode by scanning the slice. Compiled tables carry one service
// EtherType, maybe two; only synthetic many-service tables spill into
// the index map.
const smallEthMax = 16

// matcher is the compiled dispatch tree of one FlowTable.
type matcher struct {
	eths   []ethNode
	ethIdx map[int32]int32 // index into eths; nil while the set is small
	wild   mList           // entries with a wildcarded EtherType
}

func (m *matcher) ethAt(e int32) *ethNode {
	if m.ethIdx == nil {
		for i := range m.eths {
			if m.eths[i].eth == e {
				return &m.eths[i]
			}
		}
		return nil
	}
	if i, ok := m.ethIdx[e]; ok {
		return &m.eths[i]
	}
	return nil
}

// lookup returns the best matching entry and the number of entries
// probed. It never allocates.
//
//simlint:hotpath
func (m *matcher) lookup(p *Packet) (*FlowEntry, int) {
	var best *FlowEntry
	probed := 0
	if en := m.ethAt(int32(p.EthType)); en != nil {
		nd := en.any
		q := int32(p.InPort)
		for i, pq := range en.ports {
			if pq == q {
				nd = en.pvec[i]
				break
			}
		}
		if nd != nil {
			best, probed = nd.lookup(p)
		}
	}
	if len(m.wild) > 0 {
		e, n := m.wild.first(p)
		probed += n
		best = better(best, e)
	}
	return best, probed
}

// fkey identifies a tag bit range; Name is diagnostic only, so two fields
// with equal offsets and widths match identically and share a key.
type fkey struct{ off, bits int }

// exactOn returns the index of the first full-width exact FieldMatch on
// k in fields, or -1. Masked or partial-width criteria cannot key a value
// map (two different packet values can both satisfy them).
func exactOn(fields []FieldMatch, k fkey) int {
	for i, fm := range fields {
		if (fkey{fm.F.Off, fm.F.Bits}) == k && (fm.Mask == 0 || fm.Mask == fm.F.Max()) {
			return i
		}
	}
	return -1
}

// reduce builds the mEntry of e for a list whose path already tested the
// EtherType (ethKeyed), the ingress port (portKeyed), and optionally one
// field criterion (dropField >= 0, an index into e.Match.Fields).
func reduce(e *FlowEntry, portKeyed bool, dropField int) mEntry {
	me := mEntry{e: e, inPort: anyInPort, ttl: -1}
	if !portKeyed && e.Match.InPort != AnyPort {
		me.inPort = int32(e.Match.InPort)
	}
	if e.Match.TTL != AnyTTL {
		me.ttl = int16(e.Match.TTL)
	}
	n := 0
	for i, fm := range e.Match.Fields {
		if i == dropField {
			continue
		}
		c := makeCrit(fm)
		if n == 0 {
			me.c0 = c
		} else {
			me.extra = append(me.extra, c)
		}
		n++
	}
	return me
}

// buildNode compiles one (EtherType, InPort) node. list is in
// (priority desc, insertion asc) order; iterating in order keeps every
// produced sub-list ordered too.
func buildNode(list []*FlowEntry, portKeyed bool) *mNode {
	nd := &mNode{}
	// Pick the full-width-exact field covering the most entries.
	counts := make(map[fkey]int)
	var bestKey fkey
	bestCnt := 0
	for _, e := range list {
		seen := make(map[fkey]bool, len(e.Match.Fields))
		for _, fm := range e.Match.Fields {
			k := fkey{fm.F.Off, fm.F.Bits}
			if seen[k] || (fm.Mask != 0 && fm.Mask != fm.F.Max()) {
				continue
			}
			seen[k] = true
			counts[k]++
			if c := counts[k]; c > bestCnt {
				bestCnt, bestKey = c, k
			}
		}
	}
	// A split only pays when it actually carves the bucket up: with fewer
	// than two keyed entries the value map is pure overhead over the list.
	if bestCnt >= 2 && len(list) >= 3 {
		nd.split = true
		nd.vals = make(map[uint64]mList)
		for _, e := range list {
			if i := exactOn(e.Match.Fields, bestKey); i >= 0 {
				fm := e.Match.Fields[i]
				if nd.fbits == 0 {
					nd.foff, nd.fbits = int32(fm.F.Off), int32(fm.F.Bits)
				}
				v := fm.Value & fm.F.Max()
				nd.vals[v] = append(nd.vals[v], reduce(e, portKeyed, i))
			} else {
				nd.resid = append(nd.resid, reduce(e, portKeyed, -1))
			}
		}
		for i := range nd.resid {
			if p := nd.resid[i].e.Priority; i == 0 || p > nd.residTop {
				nd.residTop = p
			}
		}
		// Small value sets dodge the map: a linear scan over a handful of
		// keys is cheaper than hashing, and most compiled nodes key on a
		// low-cardinality state byte.
		if len(nd.vals) <= smallSplitMax {
			// Sorted keys make the compiled layout (and hence the probe
			// order and scan telemetry) identical run to run instead of
			// inheriting map iteration order.
			keys := make([]uint64, 0, len(nd.vals))
			for v := range nd.vals {
				keys = append(keys, v)
			}
			slices.Sort(keys)
			nd.keys = keys
			nd.lists = make([]mList, 0, len(keys))
			for _, v := range keys {
				nd.lists = append(nd.lists, nd.vals[v])
			}
			nd.vals = nil
		}
		return nd
	}
	for _, e := range list {
		nd.resid = append(nd.resid, reduce(e, portKeyed, -1))
	}
	return nd
}

// smallSplitMax is the value-set size up to which a split node keeps its
// keys in a scanned array instead of a map.
const smallSplitMax = 12

// compileMatcher builds the dispatch tree from entries (already in
// match order).
func compileMatcher(entries []*FlowEntry) *matcher {
	m := &matcher{}
	// Partition by exact EtherType, in order, remembering each type's
	// named ingress ports; entries without an exact EtherType go to the
	// wildcard list directly.
	type ethBucket struct {
		all   []*FlowEntry // this EtherType's entries, in match order
		ports []int32      // distinct exact ingress ports, first-seen order
	}
	byEth := make(map[int32]*ethBucket)
	var order []int32
	for _, e := range entries {
		k, ok := keyOf(e.Match)
		if !ok {
			m.wild = append(m.wild, reduce(e, false, -1))
			continue
		}
		b := byEth[k.eth]
		if b == nil {
			b = &ethBucket{}
			byEth[k.eth] = b
			order = append(order, k.eth)
		}
		b.all = append(b.all, e)
		if k.in != anyInPort {
			known := false
			for _, p := range b.ports {
				if p == k.in {
					known = true
					break
				}
			}
			if !known {
				b.ports = append(b.ports, k.in)
			}
		}
	}
	// Each named port's node holds that port's entries plus the EtherType's
	// port-wildcard entries, filtered out of the ordered list so the merge
	// stays in match order; the any-port node holds the wildcard entries
	// alone, for packets on unnamed ports.
	for _, eth := range order {
		b := byEth[eth]
		en := ethNode{eth: eth}
		var anyList []*FlowEntry
		for _, e := range b.all {
			if k, _ := keyOf(e.Match); k.in == anyInPort {
				anyList = append(anyList, e)
			}
		}
		for _, port := range b.ports {
			var list []*FlowEntry
			for _, e := range b.all {
				if k, _ := keyOf(e.Match); k.in == port || k.in == anyInPort {
					list = append(list, e)
				}
			}
			en.ports = append(en.ports, port)
			en.pvec = append(en.pvec, buildNode(list, true))
		}
		if len(anyList) > 0 {
			en.any = buildNode(anyList, false)
		}
		m.eths = append(m.eths, en)
	}
	if len(m.eths) > smallEthMax {
		m.ethIdx = make(map[int32]int32, len(m.eths))
		for i := range m.eths {
			m.ethIdx[m.eths[i].eth] = int32(i)
		}
	}
	m.pack()
	return m
}

// pack copies the matcher's nodes, lists and residual criteria into
// shared arenas. Build-time allocation patterns scatter them across the
// heap; packing puts everything a lookup chases into three contiguous
// blocks. The arena appends must never regrow — the counts below are
// exact — or earlier repacked slices would alias a stale backing array.
func (m *matcher) pack() {
	var nodes []*mNode
	for i := range m.eths {
		en := &m.eths[i]
		nodes = append(nodes, en.pvec...)
		if en.any != nil {
			nodes = append(nodes, en.any)
		}
	}
	nE, nC, nK := 0, 0, 0
	count := func(l mList) {
		nE += len(l)
		for i := range l {
			nC += len(l[i].extra)
		}
	}
	count(m.wild)
	for _, nd := range nodes {
		count(nd.resid)
		for _, l := range nd.lists {
			count(l)
		}
		//simlint:ignore determinism: pure size aggregation; addition is commutative
		for _, l := range nd.vals {
			count(l)
		}
		nK += len(nd.keys)
	}
	ents := make(mList, 0, nE)
	crits := make([]crit, 0, nC)
	keyArena := make([]uint64, 0, nK)
	listArena := make([]mList, 0, nK)
	re := func(l mList) mList {
		if len(l) == 0 {
			return nil
		}
		s := len(ents)
		ents = append(ents, l...)
		out := ents[s:len(ents):len(ents)]
		for i := range out {
			if n := len(out[i].extra); n > 0 {
				cs := len(crits)
				crits = append(crits, out[i].extra...)
				out[i].extra = crits[cs:len(crits):len(crits)]
			}
		}
		return out
	}
	m.wild = re(m.wild)
	arena := make([]mNode, len(nodes))
	for i, nd := range nodes {
		arena[i] = *nd
		a := &arena[i]
		a.resid = re(a.resid)
		for j := range a.lists {
			a.lists[j] = re(a.lists[j])
		}
		//simlint:ignore determinism: rewrites each keyed list in place; arena packing order affects locality only, never a match result
		for v, l := range a.vals {
			a.vals[v] = re(l)
		}
		if n := len(a.keys); n > 0 {
			s := len(keyArena)
			keyArena = append(keyArena, a.keys...)
			a.keys = keyArena[s:len(keyArena):len(keyArena)]
			s = len(listArena)
			listArena = append(listArena, a.lists...)
			a.lists = listArena[s:len(listArena):len(listArena)]
		}
	}
	// Point the index at the packed copies, in the same walk order that
	// filled nodes.
	idx := 0
	for i := range m.eths {
		en := &m.eths[i]
		for j := range en.pvec {
			en.pvec[j] = &arena[idx]
			idx++
		}
		if en.any != nil {
			en.any = &arena[idx]
			idx++
		}
	}
}
