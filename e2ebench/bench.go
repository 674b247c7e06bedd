package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"smartsouth"
	"smartsouth/internal/verify"
)

// config is one run's settings, from the command line or a test.
type config struct {
	Seed    int64
	Seconds float64
	// Trace selects the traced run: the timing decorator goes into
	// Deployment.CP and every other step records spans.
	Trace bool
}

// opSample is one operation of the timed phase.
type opSample struct {
	step   int
	hostMs float64
	simUs  float64
	failed bool
}

// stepSample is one step (closed-loop op or open-loop round) of the timed
// phase, with the counters diffed across it.
type stepSample struct {
	ops    int
	inband int
	outs   int // packet-outs
	ins    int // packet-ins
	bytes  int
	traced bool
	wallNs int64
}

// bench is one run of one workload.
type bench struct {
	sp  spec
	cfg config
	g   *smartsouth.Graph
	rng *rand.Rand
	d   *smartsouth.Deployment
	w   workload
	tr  *tracer     // nil on untraced runs
	rt  *runtimeUse // nil on untraced runs

	setupS      []float64
	rules       []float64 // flow + group + state entries per installed program
	installMsgs []float64 // install messages per installed program
	shards      int

	ops      []opSample
	steps    []stepSample
	failures []string
	heapPeak uint64
	phaseNs  int64
	step     int
	// replay holds the programs installed by the current step, whose
	// pre-install check the traced run replays after the step's timing.
	replay []*smartsouth.Program
	layers []metric // per-layer metrics of a traced run
}

func newBench(sp spec, cfg config) (*bench, error) {
	g, err := sp.Graph()
	if err != nil {
		return nil, err
	}
	b := &bench{sp: sp, cfg: cfg, g: g, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Trace {
		b.tr, b.rt = newTracer(), newRuntimeUse()
	}
	b.w = sp.newLoad(b)
	return b, nil
}

// op records one finished operation of the current step.
func (b *bench) op(host time.Duration, sim smartsouth.Time, err error) {
	b.ops = append(b.ops, opSample{
		step:   b.step,
		hostMs: float64(host.Nanoseconds()) / 1e6,
		simUs:  float64(sim) / 1e3,
		failed: err != nil,
	})
	if err != nil && len(b.failures) < 5 {
		b.failures = append(b.failures, err.Error())
	}
}

// shardCount is the workload's shard count, capped at the host's CPUs.
func (b *bench) shardCount() int {
	n := b.sp.Shards
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

// setup deploys and installs SetupReps times from the built graph and
// keeps the last deployment for the timed phase. Each repetition starts
// from a collected heap.
func (b *bench) setup() error {
	b.shards = b.shardCount()
	for r := 0; r < b.sp.SetupReps; r++ {
		if b.tr != nil {
			b.tr.on, b.tr.op = true, -1-r
		}
		b.d = nil
		runtime.GC()
		secs, err := b.deploy()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, secs)
	}
	progs := b.d.Programs()
	for _, p := range progs {
		b.rules = append(b.rules, float64(p.FlowCount()+p.GroupCount()+p.StateCount()))
		b.installMsgs = append(b.installMsgs, ratio(float64(b.d.Stats().InstallMsgs), float64(len(progs))))
	}
	b.replay = append(b.replay, progs...)
	b.replayVerify()
	if b.tr != nil {
		b.tr.on = false
	}
	return b.w.prepare(b)
}

// deploy builds a fresh deployment and installs the workload's services on
// it, returning the wall time taken.
func (b *bench) deploy() (float64, error) {
	t0 := time.Now()
	sp := b.tr.begin("smartsouth.deploy")
	d := smartsouth.Deploy(b.g, smartsouth.WithBackend(b.sp.Backend), smartsouth.WithShards(b.shards))
	b.tr.end(sp)
	if b.tr != nil {
		d.CP = timedCP{ControlPlane: d.CP, t: b.tr}
	}
	b.d = d
	err := b.w.install(b)
	return time.Since(t0).Seconds(), err
}

// newEpoch replaces the deployment with a fresh one between steps of the
// timed phase, untraced and outside every step's timing.
func (b *bench) newEpoch() error {
	if b.tr != nil {
		b.tr.on = false
	}
	b.d = nil
	if _, err := b.deploy(); err != nil {
		return err
	}
	return b.w.prepare(b)
}

// replayVerify times the pre-install check of each program the step
// installed on its own — verify's share of an install — outside the
// step's timing, and only while tracing.
func (b *bench) replayVerify() {
	if b.tr != nil && b.tr.on {
		for _, p := range b.replay {
			sp := b.tr.begin("verify.check")
			verify.CheckProgram(p, verify.Options{SkipShadowing: true})
			b.tr.end(sp)
		}
	}
	b.replay = b.replay[:0]
}

// heapLive reads the live heap as of the last GC — a runtime/metrics read,
// which does not stop the world.
func heapLive(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// phase runs steps until their summed time passes dur, and at least
// minSteps of them. The phase's time is the sum of its steps' times, so
// bookkeeping between steps and epoch set-ups do not count. Nothing between
// steps forces a garbage collection, which would collect the steps' own
// garbage outside their timing. A traced run traces every other stride of
// steps, so traced and untraced steps interleave over the same deployment
// state and the difference of their rates is the tracing overhead.
func (b *bench) phase(dur time.Duration, minSteps int) error {
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i := 0; ; i++ {
		if i >= minSteps && b.phaseNs >= dur.Nanoseconds() {
			break
		}
		if b.sp.EpochSteps > 0 && i%b.sp.EpochSteps == 0 {
			if err := b.newEpoch(); err != nil {
				return fmt.Errorf("epoch set-up: %w", err)
			}
		}
		traced := b.tr != nil && (i/max(b.sp.TraceStride, 1))%2 == 1
		if b.tr != nil {
			b.tr.on, b.tr.op = traced, i
		}
		b.step = i
		n0 := len(b.ops)
		in0, st0, by0 := b.d.Net.TotalInBand(), b.d.Stats(), totalBytes(b.d)
		if b.rt != nil {
			b.rt.start()
		}
		t0 := time.Now()
		b.w.step(b)
		wall := time.Since(t0).Nanoseconds()
		if b.rt != nil {
			b.rt.stop()
		}
		b.replayVerify()
		b.phaseNs += wall
		b.steps = append(b.steps, stepSample{
			ops:    len(b.ops) - n0,
			inband: b.d.Net.TotalInBand() - in0,
			outs:   b.d.Stats().PacketOuts - st0.PacketOuts,
			ins:    b.d.Stats().PacketIns - st0.PacketIns,
			bytes:  totalBytes(b.d) - by0,
			traced: traced,
			wallNs: wall,
		})
		if h := heapLive(heap); h > b.heapPeak {
			b.heapPeak = h
		}
	}
	if b.tr != nil {
		b.tr.on = false
	}
	return nil
}

// totalBytes sums the in-band bytes over every EtherType.
func totalBytes(d *smartsouth.Deployment) int {
	total := 0
	for _, v := range d.Net.InBandBytes() {
		total += v
	}
	return total
}

// warmup runs untimed steps so matchers are compiled and the packet pool
// is warm, then collects garbage so the timed phase starts clean. The
// warm-up operations are discarded.
func (b *bench) warmup() {
	for i := 0; i < b.sp.Warmup; i++ {
		b.w.step(b)
	}
	b.ops, b.failures = b.ops[:0], b.failures[:0]
	runtime.GC()
}

func (b *bench) attempted() int { return len(b.ops) }

func (b *bench) failed() int {
	n := 0
	for _, o := range b.ops {
		if o.failed {
			n++
		}
	}
	return n
}
