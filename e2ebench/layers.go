package main

import (
	"math"
	"runtime/metrics"

	"smartsouth"
	"smartsouth/internal/telemetry"
)

type histView = telemetry.HistView

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note is printed beside the value: the sample count behind a
	// percentile, or why a figure is what it is.
	Note string
}

// runtime/metrics series the traced run diffs across each step: the
// scalars first, then the GC pause histogram.
var runtimeSeries = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

const rtScalars = 5

// runtimeUse sums the runtime/metrics growth across the timed phase's
// steps, read around each step, so set-ups, epoch changes and verify
// replays between steps do not count.
type runtimeUse struct {
	before, after []metrics.Sample
	sum           [rtScalars]float64
	pauses        []uint64 // GC pauses per histogram bucket
	buckets       []float64
}

func newRuntimeUse() *runtimeUse {
	u := &runtimeUse{
		before: make([]metrics.Sample, len(runtimeSeries)),
		after:  make([]metrics.Sample, len(runtimeSeries)),
	}
	for i, name := range runtimeSeries {
		u.before[i].Name, u.after[i].Name = name, name
	}
	return u
}

func (u *runtimeUse) start() { metrics.Read(u.before) }

func (u *runtimeUse) stop() {
	metrics.Read(u.after)
	for i := 0; i < rtScalars; i++ {
		u.sum[i] += scalar(u.after[i].Value) - scalar(u.before[i].Value)
	}
	if u.after[rtScalars].Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	a, b := u.after[rtScalars].Value.Float64Histogram(), u.before[rtScalars].Value.Float64Histogram()
	if u.pauses == nil {
		u.pauses = make([]uint64, len(a.Counts))
		u.buckets = append([]float64(nil), a.Buckets...)
	}
	for j := range a.Counts {
		u.pauses[j] += a.Counts[j] - b.Counts[j]
	}
}

func scalar(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// pauseQuantile is the q-quantile of the summed GC pauses, in seconds (the
// upper bound of its bucket), 0 when there were none.
func (u *runtimeUse) pauseQuantile(q float64) float64 {
	var total uint64
	for _, c := range u.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for j, c := range u.pauses {
		seen += c
		if seen >= rank {
			if up := u.buckets[j+1]; !math.IsInf(up, 1) {
				return up
			}
			return u.buckets[j]
		}
	}
	return 0
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n     int
	total int64
	self  int64
	durs  []float64 // in recording order
}

// aggregate groups spans by name, split into set-up (negative op ids)
// and timed-phase spans.
func aggregate(spans []span) (setup, timed map[string]*spanStats) {
	setup, timed = map[string]*spanStats{}, map[string]*spanStats{}
	self := selfTimes(spans)
	for i, s := range spans {
		m := timed
		if s.Op < 0 {
			m = setup
		}
		st := m[s.Name]
		if st == nil {
			st = &spanStats{}
			m[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += self[i]
		st.durs = append(st.durs, float64(s.dur()))
	}
	return setup, timed
}

func (s *spanStats) durations() []float64 {
	if s == nil {
		return nil
	}
	return s.durs
}

func (s *spanStats) meanMs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e6
}

func (s *spanStats) meanSelfMs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.self) / float64(s.n) / 1e6
}

func (s *spanStats) totalNs() float64 {
	if s == nil {
		return 0
	}
	return float64(s.total)
}

func (s *spanStats) selfNs() float64 {
	if s == nil {
		return 0
	}
	return float64(s.self)
}

// drift is how much a span slowed as its deployment aged: the median
// duration of the spans named name in the last quarter of every epoch's
// steps over the median in the first quarter (the whole phase is one
// epoch when epochSteps is 0). 0 when the span never ran.
func drift(spans []span, name string, epochSteps, steps int) float64 {
	period := epochSteps
	if period == 0 {
		period = steps
	}
	var early, late []float64
	for _, s := range spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		switch pos := s.Op % period; {
		case pos < period/4:
			early = append(early, float64(s.dur()))
		case pos >= period-period/4:
			late = append(late, float64(s.dur()))
		}
	}
	return ratio(median(late), median(early))
}

// merged returns the timed-phase stats of a name, falling back to set-up
// for layers a workload only exercises there (installs on the query
// workloads).
func merged(setup, timed map[string]*spanStats, name string) *spanStats {
	if st := timed[name]; st != nil {
		return st
	}
	return setup[name]
}

// perLayer derives every per-layer metric of the traced run from its spans,
// from the telemetry registry diffed across the timed phase (tb, ta), and
// from the controller and runtime counters diffed across each step.
// Layers a workload never reaches read 0.
func perLayer(b *bench, tb, ta smartsouth.Telemetry) []metric {
	setup, timed := aggregate(b.tr.spans)
	ops, tracedOps := 0.0, 0.0
	var tracedInband, tracedWall, untracedWall, untracedOps float64
	for _, st := range b.steps {
		ops += float64(st.ops)
		if st.traced {
			tracedOps += float64(st.ops)
			tracedInband += float64(st.inband)
			tracedWall += float64(st.wallNs)
		} else {
			untracedOps += float64(st.ops)
			untracedWall += float64(st.wallNs)
		}
	}
	perOp := func(v float64) float64 { return ratio(v, ops) }
	perTracedOp := func(v float64) float64 { return ratio(v, tracedOps) }

	ev := func(kind string) float64 { return perOp(float64(ta.Events[kind] - tb.Events[kind])) }
	hops := float64(ta.Hops - tb.Hops)
	lookups := float64(ta.FlowLookups - tb.FlowLookups)
	heapDepth := histDiff(tb, ta, func(t smartsouth.Telemetry) histView { return t.HeapDepth })
	window := histDiff(tb, ta, func(t smartsouth.Telemetry) histView { return t.WindowSimNs })
	stall := histDiff(tb, ta, func(t smartsouth.Telemetry) histView { return t.BarrierStallNs })
	hopWall := histDiff(tb, ta, func(t smartsouth.Telemetry) histView { return t.HopWallNs })
	runWall := histDiff(tb, ta, func(t smartsouth.Telemetry) histView { return t.RunWallNs })
	windows := float64(ta.ShardWindows - tb.ShardWindows)
	busy := float64(ta.ShardBusyNs - tb.ShardBusyNs)
	imbalance := ratio(ratio(float64(ta.ShardBusyMaxNs-tb.ShardBusyMaxNs), windows),
		ratio(busy, float64(ta.LaneWindows-tb.LaneWindows)))
	poolGets := float64(ta.PoolGets - tb.PoolGets)
	poolHit := 1.0
	if poolGets > 0 {
		poolHit = 1 - float64(ta.PoolMisses-tb.PoolMisses)/poolGets
	}
	var inband, bytes, outs, ins float64
	for _, st := range b.steps {
		inband += float64(st.inband)
		bytes += float64(st.bytes)
		outs += float64(st.outs)
		ins += float64(st.ins)
	}
	edgeCut := 0.0
	if b.shards > 1 {
		edgeCut = float64(smartsouth.EdgeCut(b.g, smartsouth.Partition(b.g, b.shards)))
	}
	run := timed["network.run"]
	root := timed["op"]
	tracedRate, untracedRate := ratio(tracedOps, tracedWall/1e9), ratio(untracedOps, untracedWall/1e9)

	return []metric{
		{"smartsouth.deploy_ms", "ms", median(setup["smartsouth.deploy"].durations()) / 1e6, "median over set-up repetitions"},
		{"smartsouth.uninstall_ms", "ms", timed["smartsouth.uninstall"].meanMs(), ""},
		{"smartsouth.uninstall_drift", "ratio", drift(b.tr.spans, "smartsouth.uninstall", b.sp.EpochSteps, len(b.steps)), "late / early in an epoch, medians"},
		{"core.install_self_ms", "ms", merged(setup, timed, "core.install").meanSelfMs(), "lowering + verify gate"},
		{"core.trigger_us", "us", perTracedOp(timed["core.trigger"].selfNs()) / 1e3, "packet and tag build"},
		{"core.decode_us", "us", perTracedOp(timed["core.decode"].totalNs()) / 1e3, ""},
		{"verify.check_ms", "ms", merged(setup, timed, "verify.check").meanMs(), "replayed outside the op"},
		{"controller.install_program_ms", "ms", merged(setup, timed, "controller.install_program").meanMs(), ""},
		{"controller.install_msgs_per_service", "count", mean(b.installMsgs), ""},
		{"controller.reset_state_ms", "ms", perTracedOp(timed["controller.reset_state"].totalNs()) / 1e6, "per op"},
		{"controller.packet_outs_per_op", "count", perOp(outs), ""},
		{"controller.packet_ins_per_op", "count", perOp(ins), ""},
		{"network.run_ms", "ms", run.meanMs(), "per RunNetwork call"},
		{"network.ns_per_hop", "ns", ratio(run.totalNs(), tracedInband), ""},
		{"network.events_process_per_op", "count", ev("process"), ""},
		{"network.events_self_per_op", "count", ev("self"), ""},
		{"network.events_packetin_per_op", "count", ev("packetin"), ""},
		{"network.events_func_per_op", "count", ev("func"), ""},
		{"network.heap_depth_p50", "count", histQuantile(heapDepth, 0.5), ""},
		{"network.heap_peak", "count", float64(ta.HeapPeak), "process-wide peak"},
		{"network.hops_dropped_per_op", "count", perOp(float64(ta.HopsDropped - tb.HopsDropped)), ""},
		{"network.shard_windows_per_op", "count", perOp(windows), ""},
		{"network.window_sim_ns_p50", "ns", histQuantile(window, 0.5), ""},
		{"network.barrier_stall_ms_per_op", "ms", perOp(float64(stall.Sum)) / 1e6, ""},
		{"network.cut_msgs_per_op", "count", perOp(float64(ta.CutMsgs - tb.CutMsgs)), ""},
		{"network.shard_load_imbalance", "ratio", imbalance, "max / mean lane busy per window"},
		{"network.lane_busy_frac", "ratio", ratio(busy, float64(b.shards)*float64(runWall.Sum)), ""},
		{"openflow.lookups_per_hop", "count", ratio(lookups, hops), ""},
		{"openflow.scan_per_lookup", "count", ratio(float64(ta.FlowScanned-tb.FlowScanned), lookups), ""},
		{"openflow.matcher_frac", "ratio", ratio(float64(ta.MatcherLookups-tb.MatcherLookups), lookups), ""},
		{"openflow.hop_wall_ns_p50", "ns", histQuantile(hopWall, 0.5), "sampled 1 in 64 events"},
		{"openflow.hop_wall_ns_p99", "ns", histQuantile(hopWall, 0.99), "sampled 1 in 64 events"},
		{"openflow.bytes_per_hop", "B", ratio(bytes, inband), ""},
		{"openflow.state_commits_per_op", "count", perOp(float64(ta.StateCommits - tb.StateCommits)), ""},
		{"openflow.pool_hit_rate", "ratio", poolHit, ""},
		{"telemetry.flight_records_per_hop", "count", ratio(float64(ta.FlightRecords-tb.FlightRecords), hops), ""},
		{"topo.edge_cut", "count", edgeCut, ""},
		{"runtime.alloc_bytes_per_op", "B", perOp(b.rt.sum[0]), ""},
		{"runtime.allocs_per_op", "count", perOp(b.rt.sum[1]), ""},
		{"runtime.gc_cycles_per_op", "count", perOp(b.rt.sum[2]), ""},
		{"runtime.gc_cpu_frac", "ratio", ratio(b.rt.sum[3], b.rt.sum[4]), ""},
		{"runtime.gc_pause_p99_us", "us", b.rt.pauseQuantile(0.99) * 1e6, ""},
		{"trace.overhead_frac", "ratio", 1 - ratio(tracedRate, untracedRate), "1 - traced / untraced ops_per_s"},
		{"trace.unattributed_frac", "ratio", ratio(root.selfNs(), root.totalNs()), "op time outside every layer span"},
	}
}
