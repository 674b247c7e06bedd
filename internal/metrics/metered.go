package metrics

import (
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
)

// Metered decorates a core.ControlPlane with per-service attribution:
// installs are credited to the service occupying the program's slot, and
// trigger packets to the service claiming the packet's EtherType. All
// other calls pass through unchanged, so services run on a Metered plane
// exactly as on the bare one.
type Metered struct {
	core.ControlPlane
	Reg *Registry
}

// Meter wraps a control plane with a registry.
func Meter(cp core.ControlPlane, reg *Registry) *Metered {
	return &Metered{ControlPlane: cp, Reg: reg}
}

var _ core.ControlPlane = (*Metered)(nil)

// InstallProgram attributes the program's rule counts, then installs.
func (m *Metered) InstallProgram(p *openflow.Program) {
	m.Reg.NoteInstall(p)
	m.ControlPlane.InstallProgram(p)
}

// GateProgram consults the wrapped plane's install gate, if it has one,
// so decorating a plane does not hide its veto from the installers.
func (m *Metered) GateProgram(p *openflow.Program) error {
	if g, ok := m.ControlPlane.(core.ProgramGater); ok {
		return g.GateProgram(p)
	}
	return nil
}

// PacketOut attributes a controller trigger by EtherType.
func (m *Metered) PacketOut(sw, inPort int, pkt *openflow.Packet, at network.Time) {
	m.Reg.NotePacketOut(at, pkt.EthType, pkt.Size())
	m.ControlPlane.PacketOut(sw, inPort, pkt, at)
}

// InjectHost attributes an in-band host trigger by EtherType.
func (m *Metered) InjectHost(sw int, pkt *openflow.Packet, at network.Time) {
	m.Reg.NoteHostInject(at, pkt.EthType, pkt.Size())
	m.ControlPlane.InjectHost(sw, pkt, at)
}
