// Package capwire is the distributed capture plane's wire protocol and
// runtime: a stdlib-only, length-prefixed, CRC-32-checksummed message
// stream that moves sniffer capture batches from remote agents
// (cmd/capagent) into the central engine (cmd/marauder).
//
// The protocol is built for flaky capture infrastructure. Delivery is
// at-least-once with exactly-once ingest accounting: every batch carries
// a per-agent monotonic sequence number, the server acks a cumulative
// cursor, an agent replays its unacked tail after a reconnect, and the
// server dedups anything at or below its cursor. The cursor persists
// alongside the obs checkpoint generation, so resume survives an engine
// restart too.
//
// Wire format (all integers big-endian):
//
//	message  = magic "MRCW" | version u8 | type u8 | payloadLen u32
//	           | payload | crc32 u32
//
// The CRC-32 (IEEE) covers version, type, payloadLen and payload — a
// bit-flipped message fails the checksum and is rejected at the framing
// layer, turning transport corruption into a clean reconnect + replay
// instead of poisoned ingest. One Write call carries exactly one message
// (the contract the faults.WirePlan conn wrapper relies on).
package capwire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// Protocol constants.
const (
	// Version is the protocol version carried in every message.
	Version = 1

	headerLen  = 10 // magic(4) + version(1) + type(1) + payloadLen(4)
	trailerLen = 4  // crc32

	// MaxPayload bounds a single message's payload; a decoder rejects
	// larger claims before allocating.
	MaxPayload = 8 << 20

	// MaxBatchItems bounds the captures in one batch.
	MaxBatchItems = 1 << 16

	// MaxAgentID bounds the agent identifier length.
	MaxAgentID = 128

	// maxItemData bounds one capture's encoded frame bytes; generous next
	// to dot11's ~2400-byte MTU but tight enough to starve hostile length
	// claims.
	maxItemData = 1 << 16
)

var magic = [4]byte{'M', 'R', 'C', 'W'}

// Message types.
const (
	// TypeHello opens a session: agent -> server, carries the agent ID.
	TypeHello = 1
	// TypeHelloAck answers a Hello: server -> agent, carries the agent's
	// resume cursor (highest contiguous batch seq the server has ingested).
	TypeHelloAck = 2
	// TypeBatch carries one capture batch: agent -> server.
	TypeBatch = 3
	// TypeAck acknowledges batches: server -> agent, cumulative cursor.
	TypeAck = 4
	// TypeHeartbeat keeps an idle session alive: agent -> server; the
	// server answers with an Ack so both directions see traffic.
	TypeHeartbeat = 5
)

// Hello opens an agent session.
type Hello struct {
	// AgentID names the agent; the server keys cursors and accounting
	// by it. 1..MaxAgentID bytes.
	AgentID string
}

// HelloAck completes the handshake with the agent's resume cursor.
type HelloAck struct {
	// Cursor is the highest contiguous batch seq the server has ingested
	// for this agent; the agent resumes from Cursor+1.
	Cursor uint64
}

// Ack acknowledges every batch up to and including Cursor.
type Ack struct {
	Cursor uint64
}

// Heartbeat is the agent's keepalive; QueuedBatches reports its send
// backlog so the server can expose per-agent lag.
type Heartbeat struct {
	QueuedBatches uint32
}

// Item is one capture on the wire. Data holds the encoded 802.11 frame
// when HasFrame is set, or the raw (possibly corrupt) capture bytes when
// not; either way the server hands the result to the engine, whose
// quarantine path owns undecodable frames.
type Item struct {
	TimeSec     float64
	SNRDB       float64
	Channel     uint16
	CardChannel uint16
	LiveMask    uint16
	FromAP      bool
	HasFrame    bool
	Data        []byte
}

// Batch is one sequenced capture batch.
type Batch struct {
	// Seq is the agent-assigned monotonic batch sequence number,
	// starting at 1.
	Seq   uint64
	Items []Item
}

// itemFlags bits.
const (
	flagFromAP   = 1 << 0
	flagHasFrame = 1 << 1
)

// itemHeader is the fixed part of one batch item on the wire: time,
// SNR, channel, card channel, live mask, flags and data length.
const itemHeader = 8 + 8 + 2 + 2 + 2 + 1 + 4

// AppendMessage appends msg's wire encoding to dst and returns the
// extended slice. msg must be one of *Hello, *HelloAck, *Batch, *Ack,
// *Heartbeat. It sizes the message first and grows dst at most once.
func AppendMessage(dst []byte, msg any) ([]byte, error) {
	typ, plen, err := payloadLen(msg)
	if err != nil {
		return nil, err
	}
	if plen > MaxPayload {
		return nil, fmt.Errorf("capwire: payload %d bytes, max %d", plen, MaxPayload)
	}
	start := len(dst)
	dst = slices.Grow(dst, headerLen+plen+trailerLen)
	dst = append(dst, magic[:]...)
	dst = append(dst, Version, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(plen))
	switch m := msg.(type) {
	case *Hello:
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.AgentID)))
		dst = append(dst, m.AgentID...)
	case *HelloAck:
		dst = binary.BigEndian.AppendUint64(dst, m.Cursor)
	case *Ack:
		dst = binary.BigEndian.AppendUint64(dst, m.Cursor)
	case *Heartbeat:
		dst = binary.BigEndian.AppendUint32(dst, m.QueuedBatches)
	case *Batch:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Items)))
		for i := range m.Items {
			it := &m.Items[i]
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.TimeSec))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.SNRDB))
			dst = binary.BigEndian.AppendUint16(dst, it.Channel)
			dst = binary.BigEndian.AppendUint16(dst, it.CardChannel)
			dst = binary.BigEndian.AppendUint16(dst, it.LiveMask)
			var flags byte
			if it.FromAP {
				flags |= flagFromAP
			}
			if it.HasFrame {
				flags |= flagHasFrame
			}
			dst = append(dst, flags)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(it.Data)))
			dst = append(dst, it.Data...)
		}
	}
	sum := crc32.ChecksumIEEE(dst[start+4:]) // version..payload
	return binary.BigEndian.AppendUint32(dst, sum), nil
}

// payloadLen validates msg and returns its message type and payload
// length.
func payloadLen(msg any) (byte, int, error) {
	switch m := msg.(type) {
	case *Hello:
		if len(m.AgentID) == 0 || len(m.AgentID) > MaxAgentID {
			return 0, 0, fmt.Errorf("capwire: agent ID length %d, want 1..%d", len(m.AgentID), MaxAgentID)
		}
		return TypeHello, 2 + len(m.AgentID), nil
	case *HelloAck:
		return TypeHelloAck, 8, nil
	case *Ack:
		return TypeAck, 8, nil
	case *Heartbeat:
		return TypeHeartbeat, 4, nil
	case *Batch:
		if len(m.Items) > MaxBatchItems {
			return 0, 0, fmt.Errorf("capwire: batch has %d items, max %d", len(m.Items), MaxBatchItems)
		}
		n := 8 + 4 // seq + count
		for i := range m.Items {
			if d := len(m.Items[i].Data); d > maxItemData {
				return 0, 0, fmt.Errorf("capwire: item %d data %d bytes, max %d", i, d, maxItemData)
			}
			n += itemHeader + len(m.Items[i].Data)
		}
		return TypeBatch, n, nil
	}
	return 0, 0, fmt.Errorf("capwire: cannot encode %T", msg)
}

// EncodeMessage returns msg's wire encoding.
func EncodeMessage(msg any) ([]byte, error) {
	return AppendMessage(nil, msg)
}

// DecodeMessage decodes one message from the front of b, returning the
// message and the number of bytes consumed. Any framing, checksum or
// payload violation is an error; decoding never panics on arbitrary
// input, and an accepted message re-encodes to exactly the consumed
// bytes. A decoded Batch's Item.Data slices alias b, so the caller must
// not modify or reuse b while the batch, or any capture converted from
// it, is in use.
func DecodeMessage(b []byte) (any, int, error) {
	if len(b) < headerLen+trailerLen {
		return nil, 0, fmt.Errorf("capwire: short message: %d bytes", len(b))
	}
	if [4]byte(b[:4]) != magic {
		return nil, 0, fmt.Errorf("capwire: bad magic %x", b[:4])
	}
	if b[4] != Version {
		return nil, 0, fmt.Errorf("capwire: unsupported version %d", b[4])
	}
	typ := b[5]
	plen := binary.BigEndian.Uint32(b[6:10])
	if plen > MaxPayload {
		return nil, 0, fmt.Errorf("capwire: payload claims %d bytes, max %d", plen, MaxPayload)
	}
	total := headerLen + int(plen) + trailerLen
	if len(b) < total {
		return nil, 0, fmt.Errorf("capwire: message claims %d bytes, have %d", total, len(b))
	}
	payload := b[headerLen : headerLen+int(plen)]
	want := binary.BigEndian.Uint32(b[total-trailerLen : total])
	if got := crc32.ChecksumIEEE(b[4 : total-trailerLen]); got != want {
		return nil, 0, fmt.Errorf("capwire: checksum mismatch: %08x != %08x", got, want)
	}
	msg, err := decodePayload(typ, payload)
	if err != nil {
		return nil, 0, err
	}
	return msg, total, nil
}

// decodePayload parses a checksum-verified payload for one message type,
// rejecting trailing or missing bytes so decode(encode(m)) is exact.
func decodePayload(typ byte, p []byte) (any, error) {
	switch typ {
	case TypeHello:
		if len(p) < 2 {
			return nil, fmt.Errorf("capwire: hello payload %d bytes", len(p))
		}
		n := int(binary.BigEndian.Uint16(p[:2]))
		if n == 0 || n > MaxAgentID || len(p) != 2+n {
			return nil, fmt.Errorf("capwire: hello ID length %d, payload %d", n, len(p))
		}
		return &Hello{AgentID: string(p[2 : 2+n])}, nil
	case TypeHelloAck:
		if len(p) != 8 {
			return nil, fmt.Errorf("capwire: helloack payload %d bytes, want 8", len(p))
		}
		return &HelloAck{Cursor: binary.BigEndian.Uint64(p)}, nil
	case TypeAck:
		if len(p) != 8 {
			return nil, fmt.Errorf("capwire: ack payload %d bytes, want 8", len(p))
		}
		return &Ack{Cursor: binary.BigEndian.Uint64(p)}, nil
	case TypeHeartbeat:
		if len(p) != 4 {
			return nil, fmt.Errorf("capwire: heartbeat payload %d bytes, want 4", len(p))
		}
		return &Heartbeat{QueuedBatches: binary.BigEndian.Uint32(p)}, nil
	case TypeBatch:
		if len(p) < 12 {
			return nil, fmt.Errorf("capwire: batch payload %d bytes", len(p))
		}
		b := &Batch{Seq: binary.BigEndian.Uint64(p[:8])}
		count := binary.BigEndian.Uint32(p[8:12])
		if count > MaxBatchItems {
			return nil, fmt.Errorf("capwire: batch claims %d items, max %d", count, MaxBatchItems)
		}
		p = p[12:]
		// Every item takes at least itemHeader bytes, so the payload
		// bounds the allocation whatever count claims.
		b.Items = make([]Item, 0, min(int(count), len(p)/itemHeader))
		for i := uint32(0); i < count; i++ {
			if len(p) < itemHeader {
				return nil, fmt.Errorf("capwire: batch item %d: %d bytes left", i, len(p))
			}
			it := Item{
				TimeSec:     math.Float64frombits(binary.BigEndian.Uint64(p[0:8])),
				SNRDB:       math.Float64frombits(binary.BigEndian.Uint64(p[8:16])),
				Channel:     binary.BigEndian.Uint16(p[16:18]),
				CardChannel: binary.BigEndian.Uint16(p[18:20]),
				LiveMask:    binary.BigEndian.Uint16(p[20:22]),
			}
			flags := p[22]
			if flags&^(flagFromAP|flagHasFrame) != 0 {
				return nil, fmt.Errorf("capwire: batch item %d: unknown flags %02x", i, flags)
			}
			it.FromAP = flags&flagFromAP != 0
			it.HasFrame = flags&flagHasFrame != 0
			dlen := binary.BigEndian.Uint32(p[23:27])
			if dlen > maxItemData {
				return nil, fmt.Errorf("capwire: batch item %d: data claims %d bytes", i, dlen)
			}
			p = p[itemHeader:]
			if len(p) < int(dlen) {
				return nil, fmt.Errorf("capwire: batch item %d: data %d bytes, %d left", i, dlen, len(p))
			}
			if dlen > 0 {
				it.Data = p[:dlen:dlen]
			}
			p = p[dlen:]
			b.Items = append(b.Items, it)
		}
		if len(p) != 0 {
			return nil, fmt.Errorf("capwire: batch has %d trailing bytes", len(p))
		}
		return b, nil
	}
	return nil, fmt.Errorf("capwire: unknown message type %d", typ)
}

// ReadMessage reads exactly one message from r into one buffer sized
// from the header, so the decoded message aliases that buffer (see
// DecodeMessage). It allocates at most MaxPayload bytes for the payload
// and returns any framing error as-is; io.EOF before the first header
// byte means a clean close.
func ReadMessage(r io.Reader) (any, error) {
	buf := make([]byte, headerLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if [4]byte(buf[:4]) != magic {
		return nil, fmt.Errorf("capwire: bad magic %x", buf[:4])
	}
	if buf[4] != Version {
		return nil, fmt.Errorf("capwire: unsupported version %d", buf[4])
	}
	plen := binary.BigEndian.Uint32(buf[6:10])
	if plen > MaxPayload {
		return nil, fmt.Errorf("capwire: payload claims %d bytes, max %d", plen, MaxPayload)
	}
	buf = append(buf, make([]byte, int(plen)+trailerLen)...) // one growth, header kept in place
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	msg, _, err := DecodeMessage(buf)
	return msg, err
}

// ItemFromCapture converts a sniffer capture to its wire form. Decoded
// frames are re-encoded (bit-exact by dot11's round-trip contract);
// corrupt captures travel as their raw bytes with HasFrame unset.
func ItemFromCapture(c sniffer.Capture) (Item, error) {
	it, _, err := appendItem(nil, &c)
	return it, err
}

// appendItem converts c to its wire form, encoding its frame onto the
// end of arena. The item's Data is capped at the frame's end so an
// append to it cannot reach the next frame's bytes.
func appendItem(arena []byte, c *sniffer.Capture) (Item, []byte, error) {
	it := Item{
		TimeSec:     c.TimeSec,
		SNRDB:       c.SNRDB,
		Channel:     clampUint16(c.Channel),
		CardChannel: clampUint16(c.CardChannel),
		LiveMask:    c.LiveMask,
		FromAP:      c.FromAP,
	}
	if c.Frame == nil {
		it.Data = c.Raw
		return it, arena, nil
	}
	start := len(arena)
	arena, err := c.Frame.AppendEncode(arena)
	if err != nil {
		return Item{}, nil, fmt.Errorf("capwire: encode frame: %w", err)
	}
	it.Data = arena[start:len(arena):len(arena)]
	it.HasFrame = true
	return it, arena, nil
}

// BatchFromCaptures builds a sequenced wire batch from captures. Every
// frame is encoded into one arena sized up front, so a batch costs a
// fixed handful of allocations whatever its length. Raw captures'
// Data aliases their Raw bytes.
func BatchFromCaptures(seq uint64, caps []sniffer.Capture) (*Batch, error) {
	size := 0
	for i := range caps {
		if caps[i].Frame != nil {
			size += caps[i].Frame.EncodedLen()
		}
	}
	arena := make([]byte, 0, size)
	b := &Batch{Seq: seq, Items: make([]Item, len(caps))}
	for i := range caps {
		var err error
		if b.Items[i], arena, err = appendItem(arena, &caps[i]); err != nil {
			return nil, fmt.Errorf("capwire: capture %d: %w", i, err)
		}
	}
	return b, nil
}

// capture returns the item's capture metadata, without frame or raw
// bytes.
func (it *Item) capture() sniffer.Capture {
	return sniffer.Capture{
		TimeSec:     it.TimeSec,
		Channel:     int(it.Channel),
		CardChannel: int(it.CardChannel),
		SNRDB:       it.SNRDB,
		FromAP:      it.FromAP,
		LiveMask:    it.LiveMask,
	}
}

// ToCapture converts a wire item back to a sniffer capture that owns
// its memory. An item whose frame bytes no longer decode (wire
// corruption beyond what the CRC caught cannot reach here; this covers
// agent-side corruption sent deliberately as HasFrame) degrades to a raw
// capture for the engine's quarantine path.
func (it Item) ToCapture() sniffer.Capture {
	c := it.capture()
	if it.HasFrame {
		if f, err := dot11.Decode(it.Data); err == nil {
			c.Frame = f
			return c
		}
	}
	c.Raw = append([]byte(nil), it.Data...)
	return c
}

// iesPerFrame sizes ToCaptures' IE slab: SSID, supported rates and DS
// parameter set, the elements of a beacon or probe response. A frame
// with more IEs than the slab has left gets its own array.
const iesPerFrame = 3

// ToCaptures converts the batch's items for engine ingest; it agrees
// with ToCapture item by item. The captures, their frames and the
// frames' IEs come from three per-batch slabs, and the IE data aliases
// the items' Data (and so the message the batch was decoded from): a
// consumer that keeps one frame keeps the whole batch alive. Each
// frame's IEs are capped at its own, so an append to them cannot
// overwrite a neighbour's. Raw captures are copied, as in ToCapture.
func (b *Batch) ToCaptures() []sniffer.Capture {
	nFrames := 0
	for i := range b.Items {
		if b.Items[i].HasFrame {
			nFrames++
		}
	}
	caps := make([]sniffer.Capture, len(b.Items))
	frames := make([]dot11.Frame, nFrames)
	ies := make([]dot11.IE, 0, iesPerFrame*nFrames)
	for i := range b.Items {
		it := &b.Items[i]
		caps[i] = it.capture()
		if it.HasFrame {
			f := &frames[0]
			f.IEs = ies[len(ies):]
			if err := dot11.DecodeInto(f, it.Data); err == nil {
				frames = frames[1:]
				n := len(f.IEs)
				if n <= cap(ies)-len(ies) {
					// DecodeInto's appends fit, so the IEs sit in the
					// slab; otherwise append gave them their own array.
					ies = ies[:len(ies)+n]
				}
				if n == 0 {
					f.IEs = nil // as Decode leaves a frame without IEs
				} else {
					f.IEs = f.IEs[:n:n]
				}
				caps[i].Frame = f
				continue
			}
		}
		caps[i].Raw = append([]byte(nil), it.Data...)
	}
	return caps
}

func clampUint16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(v)
}
