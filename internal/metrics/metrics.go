// Package metrics aggregates per-service observability counters for a
// SmartSouth deployment: how many rules a service installed, how many
// trigger packets the controller sent, how many in-band messages its
// traversals generated (the Table 2 columns of the paper), how many
// packet-ins came back, and the traversal wall-clock in simulation time.
//
// The registry is fed from three directions: a Metered control-plane
// decorator attributes installs and trigger packets, packet-in hooks
// attribute collect messages, and the network's per-lane EtherType
// counters attribute in-band link crossings. The registry drains those
// counters (network.DrainInBand) before every read and every change of
// EtherType ownership, so nothing runs per hop on its behalf. Services
// are identified by the slot range they occupy and by the EtherTypes of
// their tagged packets — the same two keys the data plane itself uses.
package metrics

import (
	"encoding/json"
	"slices"
	"sort"
	"sync"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
)

// ServiceMetrics is the aggregated view of one deployed service. All
// counters are monotonic since registration (or the last Reset).
type ServiceMetrics struct {
	Service    string   `json:"service"`
	Slot       int      `json:"slot"`
	Slots      int      `json:"slots"`
	EtherTypes []uint16 `json:"etherTypes,omitempty"`

	// Install-time cost: one InstallTxn per switch touched by a program
	// (the batched wire transaction), FlowMods/GroupMods the individual
	// rule messages inside them.
	InstallTxns int `json:"installTxns"`
	FlowMods    int `json:"flowMods"`
	StateMods   int `json:"stateMods,omitempty"`
	GroupMods   int `json:"groupMods"`

	// Runtime control-channel cost. TriggerPackets = PacketOuts +
	// HostInjects: every packet that entered the data plane to start a
	// traversal. PacketIns are the collect messages that came back.
	TriggerPackets int `json:"triggerPackets"`
	PacketOuts     int `json:"packetOuts"`
	HostInjects    int `json:"hostInjects"`
	PacketIns      int `json:"packetIns"`
	OutBandMsgs    int `json:"outBandMsgs"`
	OutBandBytes   int `json:"outBandBytes"`

	// In-band cost: link transmissions of the service's EtherTypes,
	// delivered or not — the "#msgs / size" columns of Table 2.
	InBandMsgs  int `json:"inBandMsgs"`
	InBandBytes int `json:"inBandBytes"`

	// FirstAt/LastAt bracket the service's data-plane activity in
	// simulation time; WallClock is their difference (0 if idle).
	FirstAt   network.Time `json:"firstAt"`
	LastAt    network.Time `json:"lastAt"`
	WallClock network.Time `json:"wallClock"`

	// RuleHits/GroupHits are the live data-plane counters of the rules the
	// service installed, read from its retained Programs at snapshot time.
	RuleHits  []openflow.RuleHit  `json:"ruleHits,omitempty"`
	GroupHits []openflow.GroupHit `json:"groupHits,omitempty"`

	active bool // FirstAt is meaningful only after the first activity
}

func (m *ServiceMetrics) touch(at network.Time) {
	if !m.active {
		m.active = true
		m.FirstAt, m.LastAt = at, at
		return
	}
	if at < m.FirstAt {
		m.FirstAt = at
	}
	if at > m.LastAt {
		m.LastAt = at
	}
}

// Registry holds the per-service metrics of one deployment. Safe for
// concurrent use: remote deployments feed it from the simulator and the
// packet-in reader goroutines. The methods that drain the network's
// in-band counters (Register, Release, ByEth, Snapshot, Reset) must run
// between simulator runs, like every other read of the network.
type Registry struct {
	mu       sync.Mutex
	services []*ServiceMetrics
	byEth    map[uint16]*ServiceMetrics

	// net is the source of in-band attribution.
	net *network.Network
}

// NewRegistry returns an empty registry attributing net's in-band
// traffic.
func NewRegistry(net *network.Network) *Registry {
	return &Registry{byEth: make(map[uint16]*ServiceMetrics), net: net}
}

// foldLocked credits the in-band traffic counted since the previous fold
// to the services owning its EtherTypes; unclaimed traffic is dropped.
// Folding before every ownership change credits each transmission to the
// service that owned its EtherType when it was sent.
func (r *Registry) foldLocked() {
	r.net.DrainInBand(func(eth uint16, msgs, bytes int, first, last network.Time) {
		if m := r.byEth[eth]; m != nil {
			m.InBandMsgs += msgs
			m.InBandBytes += bytes
			m.touch(first)
			m.touch(last)
		}
	})
}

// Register creates the metrics entry for a service occupying slots
// [slot, slot+slots) and claiming the given EtherTypes for attribution.
// The first registrant of an EtherType wins (a monitor's inner snapshot
// does not steal a standalone snapshot's traffic). Returns the entry.
func (r *Registry) Register(service string, slot, slots int, eths ...uint16) *ServiceMetrics {
	if slots < 1 {
		slots = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldLocked()
	m := &ServiceMetrics{Service: service, Slot: slot, Slots: slots}
	for _, eth := range eths {
		if _, taken := r.byEth[eth]; !taken {
			r.byEth[eth] = m
			m.EtherTypes = append(m.EtherTypes, eth)
		}
	}
	r.services = append(r.services, m)
	return m
}

// Release drops the entry of the service occupying slot and frees its
// EtherType claims for the next registrant; the deployment calls it when
// it uninstalls the service. Until another service claims a released
// EtherType, its traffic is unattributed.
func (r *Registry) Release(slot int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldLocked()
	m := r.bySlotLocked(slot)
	if m == nil {
		return
	}
	for _, eth := range m.EtherTypes {
		delete(r.byEth, eth)
	}
	r.services = slices.DeleteFunc(r.services, func(x *ServiceMetrics) bool { return x == m })
}

// bySlotLocked returns the entry whose slot range covers slot, or nil.
// Later registrations win so a slot reused after Uninstall attributes to
// the new occupant.
func (r *Registry) bySlotLocked(slot int) *ServiceMetrics {
	for i := len(r.services) - 1; i >= 0; i-- {
		m := r.services[i]
		if slot >= m.Slot && slot < m.Slot+m.Slots {
			return m
		}
	}
	return nil
}

// NoteInstall attributes a compiled program's installation cost to the
// service occupying the program's slot. Transient programs (runtime
// group-mods like a smart-counter reset) count as group mods only.
func (r *Registry) NoteInstall(p *openflow.Program) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.bySlotLocked(p.Slot)
	if m == nil {
		return
	}
	m.InstallTxns += len(p.SwitchIDs())
	m.FlowMods += p.FlowCount()
	m.StateMods += p.StateCount()
	m.GroupMods += p.GroupCount()
}

// NotePacketOut attributes a controller trigger packet by EtherType.
func (r *Registry) NotePacketOut(at network.Time, eth uint16, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byEth[eth]; m != nil {
		m.PacketOuts++
		m.OutBandMsgs++
		m.OutBandBytes += bytes
		m.touch(at)
	}
}

// NoteHostInject attributes an in-band host trigger by EtherType.
func (r *Registry) NoteHostInject(at network.Time, eth uint16, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byEth[eth]; m != nil {
		m.HostInjects++
		m.touch(at)
	}
}

// NotePacketIn attributes a collect message (packet-in) by EtherType.
func (r *Registry) NotePacketIn(at network.Time, eth uint16, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byEth[eth]; m != nil {
		m.PacketIns++
		m.OutBandMsgs++
		m.OutBandBytes += bytes
		m.touch(at)
	}
}

// ByEth returns the service entry claiming the EtherType, or nil.
func (r *Registry) ByEth(eth uint16) *ServiceMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldLocked()
	return r.byEth[eth]
}

// Snapshot returns a copy of every service's metrics, ordered by slot,
// with TriggerPackets and WallClock computed.
func (r *Registry) Snapshot() []ServiceMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldLocked()
	out := make([]ServiceMetrics, len(r.services))
	for i, m := range r.services {
		c := *m
		c.TriggerPackets = c.PacketOuts + c.HostInjects
		if c.active {
			c.WallClock = c.LastAt - c.FirstAt
		}
		c.RuleHits = append([]openflow.RuleHit(nil), m.RuleHits...)
		c.GroupHits = append([]openflow.GroupHit(nil), m.GroupHits...)
		out[i] = c
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// ClearHits discards the attached hit counters of every service; call it
// before re-attaching a fresh read.
func (r *Registry) ClearHits() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.services {
		m.RuleHits, m.GroupHits = nil, nil
	}
}

// AttachHits appends rule/group hit counters to the service occupying
// slot. A multi-slot service accumulates the hits of all its programs;
// ClearHits first to replace rather than grow.
func (r *Registry) AttachHits(slot int, rules []openflow.RuleHit, groups []openflow.GroupHit) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.bySlotLocked(slot); m != nil {
		m.RuleHits = append(m.RuleHits, rules...)
		m.GroupHits = append(m.GroupHits, groups...)
	}
}

// JSON renders the snapshot as indented JSON.
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

// Reset zeroes the runtime counters of every service (install counters
// survive, mirroring ResetRuntimeStats on the controller).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldLocked()
	for _, m := range r.services {
		m.PacketOuts, m.HostInjects, m.PacketIns = 0, 0, 0
		m.OutBandMsgs, m.OutBandBytes = 0, 0
		m.InBandMsgs, m.InBandBytes = 0, 0
		m.FirstAt, m.LastAt, m.active = 0, 0, false
		m.RuleHits, m.GroupHits = nil, nil
	}
}
