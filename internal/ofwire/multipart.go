package ofwire

import (
	"encoding/binary"
	"fmt"
)

// Multipart message types.
const (
	TypeMultipartRequest = 18
	TypeMultipartReply   = 19

	// OFPMP_GROUP: group statistics.
	mpGroup = MultipartGroup
)

// Multipart kinds (exported for dispatch).
const (
	// MultipartFlow identifies OFPMP_FLOW messages.
	MultipartFlow = 1
	// MultipartGroup identifies OFPMP_GROUP messages.
	MultipartGroup = 6
)

const mpFlow = MultipartFlow

// FlowStat is one flow entry's statistics in a table-stats reply: the
// entry's priority, its cookie (the FNV-64 hash of the human-readable
// cookie string, as installed), and its packet counter.
type FlowStat struct {
	Priority int
	Cookie   uint64
	Packets  uint64
}

// MarshalFlowStatsRequest encodes an OFPMP_FLOW request for every entry
// of one table; a table ID outside 0..MaxTable is an error.
func MarshalFlowStatsRequest(xid uint32, table int) ([]byte, error) {
	if err := CheckTable(table); err != nil {
		return nil, err
	}
	body := make([]byte, 8+8)
	binary.BigEndian.PutUint16(body[0:], mpFlow)
	body[8] = uint8(table)
	return message(TypeMultipartRequest, xid, body), nil
}

// ParseFlowStatsRequest decodes the request body, returning the table id.
func ParseFlowStatsRequest(body []byte) (int, error) {
	if len(body) < 16 {
		return 0, fmt.Errorf("ofwire: short flow-stats request (%d bytes)", len(body))
	}
	if typ := binary.BigEndian.Uint16(body[0:]); typ != mpFlow {
		return 0, fmt.Errorf("ofwire: unsupported multipart type %d", typ)
	}
	return int(body[8]), nil
}

// MarshalFlowStatsReply encodes an OFPMP_FLOW reply: a fixed 18-byte
// record per entry (priority + cookie + packet count).
func MarshalFlowStatsReply(xid uint32, stats []FlowStat) []byte {
	body := make([]byte, 8+18*len(stats))
	binary.BigEndian.PutUint16(body[0:], mpFlow)
	for i, s := range stats {
		rec := body[8+18*i:]
		binary.BigEndian.PutUint16(rec[0:], uint16(s.Priority))
		binary.BigEndian.PutUint64(rec[2:], s.Cookie)
		binary.BigEndian.PutUint64(rec[10:], s.Packets)
	}
	return body2msg(xid, body)
}

func body2msg(xid uint32, body []byte) []byte { return message(TypeMultipartReply, xid, body) }

// ParseFlowStatsReply decodes a flow-stats reply body.
func ParseFlowStatsReply(body []byte) ([]FlowStat, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("ofwire: short flow-stats reply")
	}
	if typ := binary.BigEndian.Uint16(body[0:]); typ != mpFlow {
		return nil, fmt.Errorf("ofwire: unsupported multipart type %d", typ)
	}
	recs := body[8:]
	if len(recs)%18 != 0 {
		return nil, fmt.Errorf("ofwire: flow-stats reply length %d not a record multiple", len(recs))
	}
	out := make([]FlowStat, 0, len(recs)/18)
	for off := 0; off < len(recs); off += 18 {
		out = append(out, FlowStat{
			Priority: int(binary.BigEndian.Uint16(recs[off:])),
			Cookie:   binary.BigEndian.Uint64(recs[off+2:]),
			Packets:  binary.BigEndian.Uint64(recs[off+10:]),
		})
	}
	return out, nil
}

// MultipartKind peeks the multipart type of a request/reply body.
func MultipartKind(body []byte) (uint16, error) {
	if len(body) < 2 {
		return 0, fmt.Errorf("ofwire: short multipart body")
	}
	return binary.BigEndian.Uint16(body[0:]), nil
}

// GroupStats is the decoded per-group statistics: one packet counter per
// bucket (ofp_bucket_counter). For a round-robin SELECT group the bucket
// counters let the controller recover the smart-counter value out of
// band: value = sum(bucket packets) mod bucket count.
type GroupStats struct {
	ID            uint32
	BucketPackets []uint64
}

// Value returns the recovered round-robin pointer.
func (gs GroupStats) Value() int {
	if len(gs.BucketPackets) == 0 {
		return 0
	}
	var total uint64
	for _, p := range gs.BucketPackets {
		total += p
	}
	return int(total % uint64(len(gs.BucketPackets)))
}

// MarshalGroupStatsRequest encodes an OFPMP_GROUP multipart request for
// one group.
func MarshalGroupStatsRequest(xid, groupID uint32) []byte {
	body := make([]byte, 8+8)
	binary.BigEndian.PutUint16(body[0:], mpGroup)
	binary.BigEndian.PutUint32(body[8:], groupID)
	return message(TypeMultipartRequest, xid, body)
}

// ParseGroupStatsRequest decodes the request body, returning the group id.
func ParseGroupStatsRequest(body []byte) (uint32, error) {
	if len(body) < 16 {
		return 0, fmt.Errorf("ofwire: short multipart request (%d bytes)", len(body))
	}
	if typ := binary.BigEndian.Uint16(body[0:]); typ != mpGroup {
		return 0, fmt.Errorf("ofwire: unsupported multipart type %d", typ)
	}
	return binary.BigEndian.Uint32(body[8:]), nil
}

// MarshalGroupStatsReply encodes an OFPMP_GROUP multipart reply carrying
// one group's statistics.
func MarshalGroupStatsReply(xid uint32, gs GroupStats) []byte {
	// Multipart header (8) + ofp_group_stats (40) + bucket counters.
	statsLen := 40 + 16*len(gs.BucketPackets)
	body := make([]byte, 8+statsLen)
	binary.BigEndian.PutUint16(body[0:], mpGroup)
	st := body[8:]
	binary.BigEndian.PutUint16(st[0:], uint16(statsLen))
	binary.BigEndian.PutUint32(st[4:], gs.ID)
	var total uint64
	for _, p := range gs.BucketPackets {
		total += p
	}
	binary.BigEndian.PutUint64(st[16:], total) // packet_count
	for i, p := range gs.BucketPackets {
		binary.BigEndian.PutUint64(st[40+16*i:], p)
	}
	return message(TypeMultipartReply, xid, body)
}

// ParseGroupStatsReply decodes a reply body.
func ParseGroupStatsReply(body []byte) (GroupStats, error) {
	if len(body) < 8 {
		return GroupStats{}, fmt.Errorf("ofwire: short multipart reply")
	}
	if typ := binary.BigEndian.Uint16(body[0:]); typ != mpGroup {
		return GroupStats{}, fmt.Errorf("ofwire: unsupported multipart type %d", typ)
	}
	st := body[8:]
	if len(st) < 40 {
		return GroupStats{}, fmt.Errorf("ofwire: short group stats")
	}
	statsLen := int(binary.BigEndian.Uint16(st[0:]))
	if statsLen < 40 || statsLen > len(st) || (statsLen-40)%16 != 0 {
		return GroupStats{}, fmt.Errorf("ofwire: bad group stats length %d", statsLen)
	}
	gs := GroupStats{ID: binary.BigEndian.Uint32(st[4:])}
	for off := 40; off < statsLen; off += 16 {
		gs.BucketPackets = append(gs.BucketPackets, binary.BigEndian.Uint64(st[off:]))
	}
	return gs, nil
}
