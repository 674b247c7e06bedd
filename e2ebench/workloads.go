package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"smartsouth"
	"smartsouth/internal/core"
)

// spec is one workload: its topology, data plane and load shape. The
// workload's seed picks only its inputs (roots, senders, groups, planted
// blackholes, churn order); the topology is fixed, so set-up is comparable
// across seeds.
type spec struct {
	Name    string
	Topo    string
	Graph   func() (*smartsouth.Graph, error)
	Backend string
	Shards  int
	Loop    string
	// Groups, Members and Burst shape anycast-burst: Groups receiver
	// groups of Members switches each, Burst messages per round.
	Groups, Members, Burst int
	// SetupReps is how often a run sets up; setup_s is the median.
	SetupReps int
	// Warmup steps run untimed before the timed phase.
	Warmup int
	// ExactSteps is the fixed prefix of the timed phase over which the
	// exactly repeating metrics are taken. The phase runs at least this
	// many steps, so those metrics depend on the seed alone, never on how
	// fast the host is.
	ExactSteps int
	// TraceStride is how many steps in a row a traced run traces, then
	// leaves untraced (0 means 1): a whole round of the workload's mix, so
	// traced and untraced steps do the same work.
	TraceStride int
	// EpochSteps, when > 0, starts the timed phase and every EpochSteps
	// steps of it on a fresh deployment, set up again outside the timing.
	// Work that grows with the deployment's age (service-churn's slots,
	// which uninstall never frees) then has the same age range in every
	// run, however many steps the host manages.
	EpochSteps int
	newLoad    func(b *bench) workload
}

// workload is the per-workload half of a run.
type workload interface {
	// install installs the workload's services on b.d. It is part of
	// set-up and runs once per set-up repetition.
	install(b *bench) error
	// prepare readies the timed phase after set-up, untimed.
	prepare(b *bench) error
	// step runs one closed-loop operation or one open-loop round and
	// records its operations with b.op.
	step(b *bench)
}

func fixedISP(pops, routers int) func() (*smartsouth.Graph, error) {
	return func() (*smartsouth.Graph, error) { return smartsouth.ISP(pops, routers, 1) }
}

func fatTree(k int) func() (*smartsouth.Graph, error) {
	return func() (*smartsouth.Graph, error) { return smartsouth.FatTree(k) }
}

// specs are the benchmark's workloads at full size.
var specs = []spec{
	{
		Name: "snapshot-query", Topo: "ISP(32,8)", Graph: fixedISP(32, 8),
		Backend: "of13", Shards: 1, Loop: "closed loop, 1 operator client",
		SetupReps: 11, Warmup: 20, ExactSteps: 200,
		newLoad: func(*bench) workload { return &snapshotQuery{} },
	},
	{
		Name: "anycast-burst", Topo: "FatTree(12)", Graph: fatTree(12),
		Backend: "of13", Shards: 2,
		Loop:   "open loop in simulated time, rounds of 64 messages at 100 ns spacing from edge-switch hosts to 1024 groups of 2",
		Groups: 1024, Members: 2, Burst: 64,
		SetupReps: 11, Warmup: 5, ExactSteps: 200,
		newLoad: newAnycastBurst,
	},
	{
		Name: "service-churn", Topo: "ISP(16,8)", Graph: fixedISP(16, 8),
		Backend: "stateful", Shards: 1, Loop: "closed loop, 1 tenant-admin client",
		SetupReps: 11, Warmup: 6, ExactSteps: 240, EpochSteps: 60, TraceStride: churnKinds,
		newLoad: newServiceChurn,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// packetInAt is the simulated arrival time of the first packet-in of the
// given EtherType in the controller inbox.
func packetInAt(d *smartsouth.Deployment, eth uint16) (smartsouth.Time, bool) {
	for _, pi := range d.CP.Inbox() {
		if pi.Pkt.EthType == eth {
			return pi.At, true
		}
	}
	return 0, false
}

// query counts one traversal's traffic: its in-band link crossings and
// its out-of-band messages (packet-outs plus packet-ins).
type query struct {
	sim    smartsouth.Time
	inband int
	ctl    int
}

// start clears the inbox and notes the counters a query is measured from.
func (q *query) start(d *smartsouth.Deployment) smartsouth.Time {
	d.CP.ClearInbox()
	q.inband = d.Net.TotalInBand()
	q.ctl = d.Stats().RuntimeMsgs()
	return d.CP.Now() + 1
}

// finish turns the start counters into the query's own counts.
func (q *query) finish(d *smartsouth.Deployment, due smartsouth.Time, eth uint16) {
	q.inband = d.Net.TotalInBand() - q.inband
	q.ctl = d.Stats().RuntimeMsgs() - q.ctl
	if at, ok := packetInAt(d, eth); ok {
		q.sim = at - due
	}
}

// runSnapshot is one snapshot query from root: trigger, run, decode.
func runSnapshot(b *bench, s *smartsouth.Snapshot, root int) (*smartsouth.SnapshotResult, query, error) {
	var q query
	due := q.start(b.d)
	sp := b.tr.begin("core.trigger")
	s.Trigger(root, due)
	b.tr.end(sp)
	if err := b.d.Run(); err != nil {
		return nil, q, err
	}
	sp = b.tr.begin("core.decode")
	res, err := s.Collect()
	b.tr.end(sp)
	q.finish(b.d, due, s.Tmpl.Eth)
	if err == nil && res == nil {
		err = errors.New("snapshot: no report reached the controller")
	}
	return res, q, err
}

// runCritical is one criticality query of node.
func runCritical(b *bench, cr *smartsouth.Critical, node int) (bool, query, error) {
	var q query
	due := q.start(b.d)
	sp := b.tr.begin("core.trigger")
	cr.Check(node, due)
	b.tr.end(sp)
	if err := b.d.Run(); err != nil {
		return false, q, err
	}
	sp = b.tr.begin("core.decode")
	crit, ok := cr.Verdict()
	b.tr.end(sp)
	q.finish(b.d, due, cr.Tmpl.Eth)
	if !ok {
		return false, q, errors.New("critical: no verdict reached the controller")
	}
	return crit, q, nil
}

// runBlackhole is one smart-counter blackhole detection from root.
func runBlackhole(b *bench, bh *smartsouth.BlackholeCounter, root int) (*smartsouth.BlackholeReport, query, error) {
	var q query
	due := q.start(b.d)
	sp := b.tr.begin("core.trigger")
	bh.Detect(root, due, 0)
	b.tr.end(sp)
	if err := b.d.Run(); err != nil {
		return nil, q, err
	}
	sp = b.tr.begin("core.decode")
	rep, found, done := bh.Outcome()
	b.tr.end(sp)
	q.finish(b.d, due, core.EthBlackholeChk)
	switch {
	case !done:
		return nil, q, errors.New("blackhole: no verdict reached the controller")
	case !found:
		return nil, q, errors.New("blackhole: verdict healthy, but a link was planted")
	}
	return rep, q, nil
}

// edgeKey names an undirected link independent of orientation.
func edgeKey(u, v int) [2]int {
	if v < u {
		u, v = v, u
	}
	return [2]int{u, v}
}

// snapshotOracle holds what every snapshot must return on the graph: its
// exact edge set with port numbers, and the Table 2 message counts.
type snapshotOracle struct {
	n      int
	ports  map[[2]int][2]int // edgeKey -> ports at the key's two ends
	inband int               // 4|E| - 2|V| + 2
}

func newSnapshotOracle(g *smartsouth.Graph) *snapshotOracle {
	o := &snapshotOracle{
		n:      g.NumNodes(),
		ports:  make(map[[2]int][2]int, g.NumEdges()),
		inband: 4*g.NumEdges() - 2*g.NumNodes() + 2,
	}
	for _, e := range g.Edges() {
		o.ports[edgeKey(e.U, e.V)] = orientPorts(e)
	}
	return o
}

func orientPorts(e smartsouth.Edge) [2]int {
	if e.V < e.U {
		return [2]int{e.PV, e.PU}
	}
	return [2]int{e.PU, e.PV}
}

func (o *snapshotOracle) check(res *smartsouth.SnapshotResult, q query) error {
	if len(res.Nodes) != o.n {
		return fmt.Errorf("snapshot: %d nodes, graph has %d", len(res.Nodes), o.n)
	}
	if len(res.Edges) != len(o.ports) {
		return fmt.Errorf("snapshot: %d edges, graph has %d", len(res.Edges), len(o.ports))
	}
	for _, e := range res.Edges {
		want, ok := o.ports[edgeKey(e.U, e.V)]
		if !ok || want != orientPorts(e) {
			return fmt.Errorf("snapshot: edge %d:%d-%d:%d is not in the graph", e.U, e.PU, e.V, e.PV)
		}
	}
	if q.inband != o.inband {
		return fmt.Errorf("snapshot: %d in-band messages, Table 2 gives 4|E|-2|V|+2 = %d", q.inband, o.inband)
	}
	if q.ctl != 2 {
		return fmt.Errorf("snapshot: %d out-of-band messages, Table 2 gives 2", q.ctl)
	}
	return nil
}

// snapshotQuery: one operator repeatedly snapshots the network from
// seeded roots, each query after the previous one returned.
type snapshotQuery struct {
	snap   *smartsouth.Snapshot
	oracle *snapshotOracle
}

func (w *snapshotQuery) install(b *bench) error {
	sp := b.tr.begin("core.install")
	snap, err := b.d.InstallSnapshot()
	b.tr.end(sp)
	w.snap = snap
	return err
}

func (w *snapshotQuery) prepare(b *bench) error {
	w.oracle = newSnapshotOracle(b.g)
	return nil
}

func (w *snapshotQuery) step(b *bench) {
	root := b.rng.Intn(b.g.NumNodes())
	t0 := time.Now()
	op := b.tr.begin("op")
	res, q, err := runSnapshot(b, w.snap, root)
	b.tr.end(op)
	host := time.Since(t0)
	if err == nil {
		err = w.oracle.check(res, q)
	}
	b.op(host, q.sim, err)
}

// anycastBurst: independent hosts send anycast messages on a fixed
// simulated schedule, B per round, whether or not earlier ones arrived.
// Hosts, senders and receivers alike, sit on the host-facing switches.
type anycastBurst struct {
	ac     *smartsouth.Anycast
	groups map[uint32][]int
	hosts  []int
	msgs   []anycastMsg
	t0     time.Time
}

type anycastMsg struct {
	from       int
	gid        uint32
	due        smartsouth.Time
	deliveries int
	at         int
	simAt      smartsouth.Time
	wall       time.Duration
}

func newAnycastBurst(b *bench) workload {
	w := &anycastBurst{groups: make(map[uint32][]int, b.sp.Groups), hosts: hostSwitches(b.g)}
	for gid := uint32(1); gid <= uint32(b.sp.Groups); gid++ {
		for _, i := range b.rng.Perm(len(w.hosts))[:b.sp.Members] {
			w.groups[gid] = append(w.groups[gid], w.hosts[i])
		}
	}
	return w
}

func (w *anycastBurst) install(b *bench) error {
	sp := b.tr.begin("core.install")
	ac, err := b.d.InstallAnycast(w.groups)
	b.tr.end(sp)
	w.ac = ac
	return err
}

func (w *anycastBurst) prepare(b *bench) error {
	b.d.OnDeliver(func(sw int, pkt *smartsouth.Packet) {
		if len(pkt.Payload) == 4 {
			if i := int(binary.LittleEndian.Uint32(pkt.Payload)); i < len(w.msgs) {
				m := &w.msgs[i]
				m.deliveries++
				m.at = sw
				m.simAt = b.d.Net.Sim.Now()
				m.wall = time.Since(w.t0)
			}
		}
		pkt.Release()
	})
	return nil
}

func (w *anycastBurst) step(b *bench) {
	base := b.d.CP.Now() + 1
	w.msgs = w.msgs[:0]
	for i := 0; i < b.sp.Burst; i++ {
		w.msgs = append(w.msgs, anycastMsg{
			from: w.hosts[b.rng.Intn(len(w.hosts))],
			gid:  uint32(1 + b.rng.Intn(b.sp.Groups)),
			due:  base + smartsouth.Time(i)*100,
			at:   -1,
		})
	}
	ctl0 := b.d.Stats().RuntimeMsgs()
	w.t0 = time.Now()
	op := b.tr.begin("op")
	sp := b.tr.begin("core.trigger")
	for i, m := range w.msgs {
		payload := binary.LittleEndian.AppendUint32(make([]byte, 0, 4), uint32(i))
		w.ac.Send(m.from, m.gid, payload, m.due)
	}
	b.tr.end(sp)
	runErr := b.d.Run()
	b.tr.end(op)
	ctl := b.d.Stats().RuntimeMsgs() - ctl0
	for _, m := range w.msgs {
		err := runErr
		switch {
		case err != nil:
		case m.deliveries != 1:
			err = fmt.Errorf("anycast: message to group %d from %d delivered %d times", m.gid, m.from, m.deliveries)
		case !slices.Contains(w.groups[m.gid], m.at):
			err = fmt.Errorf("anycast: message to group %d delivered at %d, not a member", m.gid, m.at)
		case ctl != 0:
			err = fmt.Errorf("anycast: %d out-of-band messages in a round, Table 2 gives 0", ctl)
		}
		b.op(m.wall, m.simAt-m.due, err)
	}
}

// The services serviceChurn rotates through.
const (
	churnSnapshot = iota
	churnCritical
	churnBlackhole
	churnKinds
)

var churnNames = [churnKinds]string{"snapshot", "critical", "blackhole-counter"}

// serviceChurn: one tenant admin installs a service, queries it once and
// uninstalls it. Every round of three cycles runs snapshot, critical and
// blackhole-counter once each, in an order the seed draws for each pair of
// rounds (a traced run traces one round of the pair and not the other).
type serviceChurn struct {
	order        []int
	pair         []int
	rounds       int
	snapOracle   *snapshotOracle
	articulation []bool
}

func newServiceChurn(*bench) workload { return &serviceChurn{} }

func (w *serviceChurn) install(b *bench) error {
	for kind := 0; kind < churnKinds; kind++ {
		if _, err := w.installKind(b, kind); err != nil {
			return err
		}
	}
	return nil
}

// installKind installs one service of the rotation; the returned value is
// the service handle.
func (w *serviceChurn) installKind(b *bench, kind int) (any, error) {
	sp := b.tr.begin("core.install")
	defer b.tr.end(sp)
	switch kind {
	case churnSnapshot:
		return b.d.InstallSnapshot()
	case churnCritical:
		return b.d.InstallCritical()
	default:
		return b.d.InstallBlackholeCounter()
	}
}

func (w *serviceChurn) prepare(b *bench) error {
	// Cycles start from a clean data plane: drop the set-up installs.
	for _, p := range b.d.Programs() {
		b.d.Uninstall(p.Slot)
	}
	w.snapOracle = newSnapshotOracle(b.g)
	w.articulation = articulationPoints(b.g)
	return nil
}

func (w *serviceChurn) step(b *bench) {
	if len(w.order) == 0 {
		if w.rounds%2 == 0 {
			w.pair = b.rng.Perm(churnKinds)
		}
		w.order = append(w.order, w.pair...)
		w.rounds++
	}
	kind := w.order[0]
	w.order = w.order[1:]
	n := b.g.NumNodes()
	root := b.rng.Intn(n)
	hole := b.g.Edges()[b.rng.Intn(b.g.NumEdges())]
	if b.rng.Intn(2) == 1 {
		hole.U, hole.V = hole.V, hole.U
	}
	if kind == churnBlackhole {
		if err := b.d.Net.SetBlackhole(hole.U, hole.V, false); err != nil {
			b.op(0, 0, err)
			return
		}
	}

	t0 := time.Now()
	op := b.tr.begin("op")
	svc, err := w.installKind(b, kind)
	var (
		prog *smartsouth.Program
		q    query
		snap *smartsouth.SnapshotResult
		crit bool
		rep  *smartsouth.BlackholeReport
	)
	if err == nil {
		switch s := svc.(type) {
		case *smartsouth.Snapshot:
			prog = s.Prog
			snap, q, err = runSnapshot(b, s, root)
		case *smartsouth.Critical:
			prog = s.Prog
			crit, q, err = runCritical(b, s, root)
		case *smartsouth.BlackholeCounter:
			prog = s.Prog
			rep, q, err = runBlackhole(b, s, root)
			if rerr := b.d.Net.SetLinkDown(hole.U, hole.V, false); err == nil {
				err = rerr
			}
		}
		sp := b.tr.begin("smartsouth.uninstall")
		b.d.Uninstall(prog.Slot)
		b.tr.end(sp)
	} else if kind == churnBlackhole {
		// The install error is what this op reports; the link exists, as
		// planting it just succeeded.
		_ = b.d.Net.SetLinkDown(hole.U, hole.V, false)
	}
	b.tr.end(op)
	host := time.Since(t0)

	if prog != nil {
		b.replay = append(b.replay, prog)
	}
	if err == nil {
		switch kind {
		case churnSnapshot:
			err = w.snapOracle.check(snap, q)
		case churnCritical:
			if crit != w.articulation[root] {
				err = fmt.Errorf("critical: node %d verdict %v, articulation check %v", root, crit, w.articulation[root])
			}
		case churnBlackhole:
			if edgeKey(rep.Switch, rep.Peer) != edgeKey(hole.U, hole.V) {
				err = fmt.Errorf("blackhole: reported %v, planted %d->%d", rep, hole.U, hole.V)
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("%s cycle: %w", churnNames[kind], err)
	}
	b.op(host, q.sim, err)
}

// articulationPoints marks every node whose removal disconnects the rest
// of the graph, by removing each node in turn and searching the rest from
// the lowest remaining node.
func articulationPoints(g *smartsouth.Graph) []bool {
	n := g.NumNodes()
	cut := make([]bool, n)
	seen := make([]bool, n)
	stack := make([]int, 0, n)
	for v := 0; v < n && n > 2; v++ {
		for i := range seen {
			seen[i] = false
		}
		start := 0
		if v == 0 {
			start = 1
		}
		seen[v], seen[start] = true, true
		reached := 1
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for p := 1; p <= g.Degree(u); p++ {
				w, _, ok := g.Neighbor(u, p)
				if ok && !seen[w] {
					seen[w] = true
					reached++
					stack = append(stack, w)
				}
			}
		}
		cut[v] = reached < n-1
	}
	return cut
}

// hostSwitches are the switches hosts attach to: those of least degree,
// which on a fat-tree is the edge layer (its host ports are not modelled).
func hostSwitches(g *smartsouth.Graph) []int {
	least := g.MaxDegree()
	for v := 0; v < g.NumNodes(); v++ {
		least = min(least, g.Degree(v))
	}
	var hosts []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) == least {
			hosts = append(hosts, v)
		}
	}
	return hosts
}
