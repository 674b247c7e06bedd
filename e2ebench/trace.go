package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"smartsouth"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent links a span to the span open when it began (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory while on. A nil tracer, or one switched
// off, records nothing, so the call sites need no guards. The benchmark
// drives the deployment from one goroutine, so a stack of open spans gives
// every span its parent.
type tracer struct {
	on    bool
	op    int
	base  time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{base: time.Now(), op: -1} }

// begin opens a span and returns its handle for end; -1 when not recording.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: time.Since(t.base).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.base).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns every span's self time: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeSpans dumps the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedCP is the timing decorator the traced run puts in Deployment.CP:
// every call a service or the facade makes into the control plane or the
// simulator through it is a span.
type timedCP struct {
	smartsouth.ControlPlane
	t *tracer
}

func (c timedCP) InstallProgram(p *smartsouth.Program) {
	defer c.t.end(c.t.begin("controller.install_program"))
	c.ControlPlane.InstallProgram(p)
}

func (c timedCP) ResetState(tables ...int) {
	defer c.t.end(c.t.begin("controller.reset_state"))
	c.ControlPlane.ResetState(tables...)
}

func (c timedCP) PacketOut(sw, inPort int, pkt *smartsouth.Packet, at smartsouth.Time) {
	defer c.t.end(c.t.begin("controller.packet_out"))
	c.ControlPlane.PacketOut(sw, inPort, pkt, at)
}

func (c timedCP) InjectHost(sw int, pkt *smartsouth.Packet, at smartsouth.Time) {
	defer c.t.end(c.t.begin("network.inject"))
	c.ControlPlane.InjectHost(sw, pkt, at)
}

func (c timedCP) RunNetwork() (int, error) {
	defer c.t.end(c.t.begin("network.run"))
	return c.ControlPlane.RunNetwork()
}
