package ofconn

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"smartsouth/internal/ofwire"
	"smartsouth/internal/openflow"
)

// Client is the controller side of the control channel to one switch.
// After Start, a background goroutine demultiplexes incoming messages:
// packet-ins are delivered on PacketIns(), barrier replies complete
// pending Barrier calls, echo requests are answered automatically.
type Client struct {
	conn *Conn

	mu           sync.Mutex
	pending      map[uint32]chan struct{}          // barrier waiters by xid
	statsPending map[uint32]chan ofwire.GroupStats // group-stats waiters
	flowPending  map[uint32]chan []ofwire.FlowStat // flow-stats waiters
	features     *ofwire.Features

	packetIns chan ofwire.PacketIn
	readErr   error
	done      chan struct{}

	// OnPortStatus, if set before Start, observes port-status messages
	// (called from the receive goroutine).
	OnPortStatus func(ofwire.PortStatus)
}

// NewClient wraps a transport connection; call Start before use.
func NewClient(c net.Conn) *Client {
	return &Client{
		conn:         New(c),
		pending:      make(map[uint32]chan struct{}),
		statsPending: make(map[uint32]chan ofwire.GroupStats),
		flowPending:  make(map[uint32]chan []ofwire.FlowStat),
		packetIns:    make(chan ofwire.PacketIn, 64),
		done:         make(chan struct{}),
	}
}

// Dial connects to a switch agent over TCP and starts the session.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ofconn: dial %s: %w", addr, err)
	}
	cl := NewClient(c)
	if err := cl.Start(); err != nil {
		c.Close()
		return nil, err
	}
	return cl, nil
}

// Start performs the handshake, requests switch features and launches the
// receive loop.
func (cl *Client) Start() error {
	if err := cl.conn.Handshake(); err != nil {
		return err
	}
	if err := cl.conn.Send(ofwire.FeaturesRequest(cl.conn.NextXID())); err != nil {
		return err
	}
	h, body, err := cl.conn.Recv()
	if err != nil {
		return err
	}
	if h.Type != ofwire.TypeFeaturesReply {
		return fmt.Errorf("ofconn: expected FEATURES_REPLY, got type %d", h.Type)
	}
	f, err := ofwire.ParseFeaturesReply(body)
	if err != nil {
		return err
	}
	cl.features = &f
	go cl.readLoop()
	return nil
}

// Features returns the switch's advertised features (after Start).
func (cl *Client) Features() ofwire.Features {
	if cl.features == nil {
		return ofwire.Features{}
	}
	return *cl.features
}

// PacketIns returns the channel of packet-ins; it is closed when the
// session ends.
func (cl *Client) PacketIns() <-chan ofwire.PacketIn { return cl.packetIns }

func (cl *Client) readLoop() {
	defer close(cl.packetIns)
	defer close(cl.done)
	for {
		h, body, err := cl.conn.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				cl.mu.Lock()
				cl.readErr = err
				cl.mu.Unlock()
			}
			return
		}
		switch h.Type {
		case ofwire.TypePacketIn:
			pi, err := ofwire.ParsePacketIn(body)
			if err != nil {
				continue
			}
			cl.packetIns <- pi
		case ofwire.TypeBarrierReply:
			cl.mu.Lock()
			if ch, ok := cl.pending[h.XID]; ok {
				delete(cl.pending, h.XID)
				close(ch)
			}
			cl.mu.Unlock()
		case ofwire.TypeMultipartReply:
			kind, err := ofwire.MultipartKind(body)
			if err != nil {
				continue
			}
			switch kind {
			case ofwire.MultipartGroup:
				if gs, err := ofwire.ParseGroupStatsReply(body); err == nil {
					cl.mu.Lock()
					if ch, ok := cl.statsPending[h.XID]; ok {
						delete(cl.statsPending, h.XID)
						ch <- gs
					}
					cl.mu.Unlock()
				}
			case ofwire.MultipartFlow:
				if fs, err := ofwire.ParseFlowStatsReply(body); err == nil {
					cl.mu.Lock()
					if ch, ok := cl.flowPending[h.XID]; ok {
						delete(cl.flowPending, h.XID)
						ch <- fs
					}
					cl.mu.Unlock()
				}
			}
		case ofwire.TypePortStatus:
			if cl.OnPortStatus != nil {
				if ps, err := ofwire.ParsePortStatus(body); err == nil {
					cl.OnPortStatus(ps)
				}
			}
		case ofwire.TypeEchoRequest:
			_ = cl.conn.Send(ofwire.EchoReply(h.XID, body))
		case ofwire.TypeError:
			// Errors are recorded; rule installation is fire-and-forget
			// like real OpenFlow, and the barrier surfaces ordering.
			cl.mu.Lock()
			cl.readErr = fmt.Errorf("ofconn: switch reported error for xid %d", h.XID)
			cl.mu.Unlock()
		}
	}
}

// Err returns the first asynchronous session error, if any.
func (cl *Client) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.readErr
}

// InstallFlow sends a FLOW_MOD adding e to the table.
func (cl *Client) InstallFlow(table int, e *openflow.FlowEntry) error {
	msg, err := ofwire.MarshalFlowMod(cl.conn.NextXID(), table, e)
	if err != nil {
		return err
	}
	return cl.conn.Send(msg)
}

// InstallGroup sends a GROUP_MOD adding g.
func (cl *Client) InstallGroup(g *openflow.GroupEntry) error {
	msg, err := ofwire.MarshalGroupMod(cl.conn.NextXID(), g)
	if err != nil {
		return err
	}
	return cl.conn.Send(msg)
}

// InstallBatch sends one switch's share of a compiled program — groups
// first (flow rules may reference them), then flow rules — framed into as
// few TypeBatch messages as the size cap allows. It returns the number of
// control-channel messages actually written, the figure the batched-vs-
// per-rule comparison is made of.
func (cl *Client) InstallBatch(flows []openflow.FlowRule, groups []*openflow.GroupEntry) (int, error) {
	subs := make([][]byte, 0, len(flows)+len(groups))
	for _, g := range groups {
		msg, err := ofwire.MarshalGroupMod(cl.conn.NextXID(), g)
		if err != nil {
			return 0, err
		}
		subs = append(subs, msg)
	}
	for _, fr := range flows {
		msg, err := ofwire.MarshalFlowMod(cl.conn.NextXID(), fr.Table, fr.Entry)
		if err != nil {
			return 0, err
		}
		subs = append(subs, msg)
	}
	batches := ofwire.MarshalBatches(cl.conn.NextXID, subs)
	for i, b := range batches {
		if err := cl.conn.Send(b); err != nil {
			return i, err
		}
	}
	return len(batches), nil
}

// PacketOut injects a packet at the switch, optionally with an explicit
// action list (none means "run the pipeline").
func (cl *Client) PacketOut(inPort int, actions []openflow.Action, pkt *openflow.Packet) error {
	msg, err := ofwire.MarshalPacketOut(cl.conn.NextXID(), ofwire.PacketOut{
		InPort: inPort, Actions: actions, Pkt: pkt,
	})
	if err != nil {
		return err
	}
	return cl.conn.Send(msg)
}

// GroupStats requests one group's statistics and blocks for the reply.
func (cl *Client) GroupStats(groupID uint32) (ofwire.GroupStats, error) {
	xid := cl.conn.NextXID()
	ch := make(chan ofwire.GroupStats, 1)
	cl.mu.Lock()
	cl.statsPending[xid] = ch
	cl.mu.Unlock()
	if err := cl.conn.Send(ofwire.MarshalGroupStatsRequest(xid, groupID)); err != nil {
		return ofwire.GroupStats{}, err
	}
	select {
	case gs := <-ch:
		return gs, nil
	case <-cl.done:
		return ofwire.GroupStats{}, fmt.Errorf("ofconn: session closed awaiting group stats: %w", cl.Err())
	}
}

// FlowStats requests the statistics of every entry of one table and
// blocks for the reply.
func (cl *Client) FlowStats(table int) ([]ofwire.FlowStat, error) {
	xid := cl.conn.NextXID()
	req, err := ofwire.MarshalFlowStatsRequest(xid, table)
	if err != nil {
		return nil, err
	}
	ch := make(chan []ofwire.FlowStat, 1)
	cl.mu.Lock()
	cl.flowPending[xid] = ch
	cl.mu.Unlock()
	if err := cl.conn.Send(req); err != nil {
		return nil, err
	}
	select {
	case fs := <-ch:
		return fs, nil
	case <-cl.done:
		return nil, fmt.Errorf("ofconn: session closed awaiting flow stats: %w", cl.Err())
	}
}

// SendRaw pushes a pre-encoded message down the channel (testing and
// extensions).
func (cl *Client) SendRaw(msg []byte) error { return cl.conn.Send(msg) }

// Barrier sends a BARRIER_REQUEST and blocks until the reply arrives —
// the guarantee that everything sent before it has been applied.
func (cl *Client) Barrier() error {
	xid := cl.conn.NextXID()
	ch := make(chan struct{})
	cl.mu.Lock()
	cl.pending[xid] = ch
	cl.mu.Unlock()
	if err := cl.conn.Send(ofwire.BarrierRequest(xid)); err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-cl.done:
		return fmt.Errorf("ofconn: session closed while waiting for barrier: %w", cl.Err())
	}
}

// Close terminates the session.
func (cl *Client) Close() error { return cl.conn.Close() }
