package capwire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// mixedCaptures returns n captures cycling through what a sniffer hands
// an agent: probe requests, probe responses, beacons, association
// requests (a frame without IEs), deauths and the occasional corrupt
// capture carried as raw bytes.
func mixedCaptures(n int) []sniffer.Capture {
	caps := make([]sniffer.Capture, 0, n)
	for i := 0; i < n; i++ {
		dev, ap := testMAC(byte(i)), dot11.MAC{0x02, 0xaa, 0, 0, byte(i >> 8), byte(i)}
		seq := uint16(i * 37)
		c := sniffer.Capture{
			TimeSec: float64(i) * 0.125, Channel: 1 + i%11, CardChannel: 1 + i%3*5,
			SNRDB: float64(i%40) - 3.5, LiveMask: uint16(i % 8),
		}
		switch i % 6 {
		case 0:
			c.Frame = dot11.NewProbeRequest(dev, fmt.Sprintf("net-%d", i%7), seq)
		case 1:
			c.Frame = dot11.NewProbeResponse(ap, dev, "corp-wifi", 1+i%11, seq)
			c.FromAP = true
		case 2:
			c.Frame = dot11.NewBeacon(ap, strings.Repeat("b", i%33), 6, uint64(i)*102400, seq)
			c.FromAP = true
		case 3:
			c.Frame = &dot11.Frame{Type: dot11.TypeManagement, Subtype: dot11.SubtypeAssocReq,
				Addr1: ap, Addr2: dev, Addr3: ap, Seq: seq & dot11.MaxSeq}
		case 4:
			c.Frame = &dot11.Frame{Type: dot11.TypeManagement, Subtype: dot11.SubtypeDeauth,
				Addr1: dev, Addr2: ap, Addr3: ap, Seq: seq & dot11.MaxSeq, Frag: uint8(i % 16)}
		case 5:
			c.Raw = []byte{0xba, 0xd0, byte(i), 0xff, 0x00}
		}
		caps = append(caps, c)
	}
	return caps
}

// mixedBatch is the equivalence tests' batch: mixedCaptures, then four
// beacons crowded with vendor IEs (more than ToCaptures' IE slab has
// room for), then the items no sniffer capture produces — frame bytes
// that do not decode, and zero-length data with and without HasFrame.
func mixedBatch(t testing.TB, seq uint64, n int) *Batch {
	t.Helper()
	caps := mixedCaptures(n)
	for i := 0; i < 4; i++ {
		f := dot11.NewBeacon(dot11.MAC{0x02, 0xcc, byte(i)}, "crowded", 11, 7, uint16(i))
		for j := 0; j < 40; j++ {
			f.IEs = append(f.IEs, dot11.IE{ID: 221, Data: []byte{0x00, 0x50, 0xf2, byte(j)}})
		}
		caps = append(caps, sniffer.Capture{TimeSec: 99, Frame: f, FromAP: true})
	}
	b, err := BatchFromCaptures(seq, caps)
	if err != nil {
		t.Fatal(err)
	}
	good := b.Items[0].Data
	badFCS := append([]byte(nil), good...)
	badFCS[len(badFCS)-1] ^= 0xff
	b.Items = append(b.Items,
		Item{TimeSec: 1, HasFrame: true, Data: badFCS},
		Item{TimeSec: 2, HasFrame: true, Data: good[:20]},
		Item{TimeSec: 3, HasFrame: true},
		Item{TimeSec: 4},
		Item{TimeSec: 5, FromAP: true, Data: []byte{1, 2, 3}},
	)
	return b
}

// wireRoundTrip encodes b and reads it back the way the server does, so
// the decoded items alias one message buffer.
func wireRoundTrip(t testing.TB, b *Batch) *Batch {
	t.Helper()
	buf, err := EncodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return msg.(*Batch)
}

// The slab-decoded batch must be exactly what converting item by item
// through the copying ToCapture gives.
func TestToCapturesMatchesPerItem(t *testing.T) {
	b := wireRoundTrip(t, mixedBatch(t, 5, 60))
	got := b.ToCaptures()
	if len(got) != len(b.Items) {
		t.Fatalf("ToCaptures returned %d captures for %d items", len(got), len(b.Items))
	}
	frames, raws := 0, 0
	for i, it := range b.Items {
		if cap(it.Data) != len(it.Data) {
			t.Fatalf("item %d: decoded data has spare capacity into the next item's", i)
		}
		want := it.ToCapture()
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("item %d: slab capture\n%+v\nper-item capture\n%+v", i, got[i], want)
		}
		if got[i].Frame != nil {
			frames++
		} else {
			raws++
		}
	}
	// 50 sniffer frames and 4 crowded beacons; 10 raw captures and 5
	// hand-built non-frames.
	if frames != 54 || raws != 15 {
		t.Fatalf("%d frames, %d raw captures; want 54 and 15", frames, raws)
	}
}

func TestBatchFromCapturesMatchesItemFromCapture(t *testing.T) {
	caps := mixedCaptures(60)
	b, err := BatchFromCaptures(9, caps)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != 9 || len(b.Items) != len(caps) {
		t.Fatalf("batch seq %d with %d items, want 9 and %d", b.Seq, len(b.Items), len(caps))
	}
	for i, c := range caps {
		want, err := ItemFromCapture(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b.Items[i], want) {
			t.Fatalf("capture %d: batch item\n%+v\nper-capture item\n%+v", i, b.Items[i], want)
		}
		if d := b.Items[i].Data; b.Items[i].HasFrame && cap(d) != len(d) {
			t.Fatalf("capture %d: frame bytes have spare capacity into the next frame's", i)
		}
	}

	// A frame that does not encode fails both the same way.
	bad := append(caps[:3:3], sniffer.Capture{Frame: &dot11.Frame{Type: dot11.TypeManagement, Seq: 5000}})
	if _, err := ItemFromCapture(bad[3]); err == nil || !strings.Contains(err.Error(), "sequence number") {
		t.Fatalf("ItemFromCapture of Seq 5000: %v", err)
	}
	if _, err := BatchFromCaptures(1, bad); err == nil || !strings.Contains(err.Error(), "capture 3") {
		t.Fatalf("BatchFromCaptures with Seq 5000 at index 3: %v", err)
	}
}

// legacyFrameEncode and legacyAppendMessage are the frame and message
// encoders as they were before the batch path moved to one arena per
// batch; they pin wire format v1 byte for byte.
func legacyFrameEncode(f *dot11.Frame) []byte {
	var buf []byte
	fc := uint16(f.Type)<<2 | uint16(f.Subtype)<<4
	buf = binary.LittleEndian.AppendUint16(buf, fc)
	buf = binary.LittleEndian.AppendUint16(buf, f.Duration)
	buf = append(buf, f.Addr1[:]...)
	buf = append(buf, f.Addr2[:]...)
	buf = append(buf, f.Addr3[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, f.Seq<<4|uint16(f.Frag&0x0f))
	if f.Subtype == dot11.SubtypeBeacon || f.Subtype == dot11.SubtypeProbeResp {
		buf = binary.LittleEndian.AppendUint64(buf, f.Timestamp)
		buf = binary.LittleEndian.AppendUint16(buf, f.BeaconInterval)
		buf = binary.LittleEndian.AppendUint16(buf, f.Capability)
	}
	for _, ie := range f.IEs {
		buf = append(buf, ie.ID, byte(len(ie.Data)))
		buf = append(buf, ie.Data...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func legacyAppendMessage(dst []byte, msg any) []byte {
	var typ byte
	var payload []byte
	switch m := msg.(type) {
	case *Hello:
		typ = TypeHello
		payload = binary.BigEndian.AppendUint16(payload, uint16(len(m.AgentID)))
		payload = append(payload, m.AgentID...)
	case *HelloAck:
		typ = TypeHelloAck
		payload = binary.BigEndian.AppendUint64(nil, m.Cursor)
	case *Ack:
		typ = TypeAck
		payload = binary.BigEndian.AppendUint64(nil, m.Cursor)
	case *Heartbeat:
		typ = TypeHeartbeat
		payload = binary.BigEndian.AppendUint32(nil, m.QueuedBatches)
	case *Batch:
		typ = TypeBatch
		payload = binary.BigEndian.AppendUint64(nil, m.Seq)
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(m.Items)))
		for _, it := range m.Items {
			payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(it.TimeSec))
			payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(it.SNRDB))
			payload = binary.BigEndian.AppendUint16(payload, it.Channel)
			payload = binary.BigEndian.AppendUint16(payload, it.CardChannel)
			payload = binary.BigEndian.AppendUint16(payload, it.LiveMask)
			var flags byte
			if it.FromAP {
				flags |= flagFromAP
			}
			if it.HasFrame {
				flags |= flagHasFrame
			}
			payload = append(payload, flags)
			payload = binary.BigEndian.AppendUint32(payload, uint32(len(it.Data)))
			payload = append(payload, it.Data...)
		}
	}
	start := len(dst)
	dst = append(dst, 'M', 'R', 'C', 'W', 1, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:]))
}

func TestBatchEncodingUnchanged(t *testing.T) {
	caps := mixedCaptures(413)
	b, err := BatchFromCaptures(77, caps)
	if err != nil {
		t.Fatal(err)
	}
	legacy := &Batch{Seq: 77}
	for _, c := range caps {
		it := Item{
			TimeSec: c.TimeSec, SNRDB: c.SNRDB, Channel: uint16(c.Channel),
			CardChannel: uint16(c.CardChannel), LiveMask: c.LiveMask, FromAP: c.FromAP, Data: c.Raw,
		}
		if c.Frame != nil {
			it.Data, it.HasFrame = legacyFrameEncode(c.Frame), true
		}
		legacy.Items = append(legacy.Items, it)
	}
	msgs := append(sampleMessages(t), b)
	wants := append(sampleMessages(t), legacy)
	for i, msg := range msgs {
		got, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		if want := legacyAppendMessage(nil, wants[i]); !bytes.Equal(got, want) {
			t.Fatalf("message %d (%T): encoding changed\n got %x\nwant %x", i, msg, got, want)
		}
	}
	// Appending after existing bytes leaves them and encodes the same.
	prefix := []byte("keep")
	got, err := AppendMessage(prefix, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := legacyAppendMessage([]byte("keep"), legacy); !bytes.Equal(got, want) {
		t.Fatal("AppendMessage after a prefix differs from the legacy encoding")
	}
}

// Frames decoded from one batch share slabs; neither an append to one
// frame's IEs nor decoding another batch may reach a neighbour.
func TestToCapturesFramesDoNotShareIEs(t *testing.T) {
	snapshot := func(caps []sniffer.Capture) []sniffer.Capture {
		out := make([]sniffer.Capture, len(caps))
		for i, c := range caps {
			out[i] = c
			if c.Frame != nil {
				out[i].Frame = &dot11.Frame{}
				*out[i].Frame = *c.Frame
				out[i].Frame.IEs = nil
				for _, ie := range c.Frame.IEs {
					out[i].Frame.IEs = append(out[i].Frame.IEs, dot11.IE{ID: ie.ID, Data: bytes.Clone(ie.Data)})
				}
			}
			out[i].Raw = bytes.Clone(c.Raw)
		}
		return out
	}
	first := wireRoundTrip(t, mixedBatch(t, 1, 24)).ToCaptures()
	want := snapshot(first)

	// Captures 0, 1 and 2 are a probe request, a probe response and a
	// beacon: adjacent frames whose IEs sit next to each other.
	for i := 0; i < 2; i++ {
		f := first[i].Frame
		f.IEs = append(f.IEs, dot11.IE{ID: 221, Data: []byte("vendor")})
		ssid := &f.IEs[0]
		ssid.Data = append(ssid.Data, "-suffix"...)
	}
	second := wireRoundTrip(t, mixedBatch(t, 2, 30)).ToCaptures()
	for i := range second {
		if second[i].Frame != nil {
			second[i].Frame.IEs = append(second[i].Frame.IEs, dot11.IE{ID: 7})
		}
	}

	for i := range first {
		w := want[i]
		if i < 2 {
			// Undo this frame's own edits; the rest must be untouched.
			first[i].Frame.IEs = first[i].Frame.IEs[:len(w.Frame.IEs)]
			first[i].Frame.IEs[0].Data = first[i].Frame.IEs[0].Data[:len(w.Frame.IEs[0].Data)]
		}
		if !reflect.DeepEqual(first[i], w) {
			t.Fatalf("capture %d changed after edits to its neighbours and a second decode:\n got %+v\nwant %+v", i, first[i], w)
		}
	}
}

// The batch codec allocates per batch, not per frame.
func TestBatchAllocs(t *testing.T) {
	caps := mixedCaptures(400)
	for i := range caps {
		if caps[i].Frame == nil {
			caps[i].Frame = dot11.NewProbeRequest(testMAC(byte(i)), "x", uint16(i))
		}
	}
	var msg []byte
	encode := testing.AllocsPerRun(20, func() {
		b, err := BatchFromCaptures(1, caps)
		if err != nil {
			t.Fatal(err)
		}
		if msg, err = EncodeMessage(b); err != nil {
			t.Fatal(err)
		}
	})
	r := bytes.NewReader(nil)
	decode := testing.AllocsPerRun(20, func() {
		r.Reset(msg)
		m, err := ReadMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(m.(*Batch).ToCaptures()); n != len(caps) {
			t.Fatalf("decoded %d captures, want %d", n, len(caps))
		}
	})
	t.Logf("400-frame batch: encode %.0f allocs, decode %.0f allocs", encode, decode)
	if encode > 6 {
		t.Errorf("encode (BatchFromCaptures + EncodeMessage) made %.0f allocations, want <= 6", encode)
	}
	if decode > 12 {
		t.Errorf("decode (ReadMessage + ToCaptures) made %.0f allocations, want <= 12", decode)
	}
}

func benchBatch(b *testing.B) ([]sniffer.Capture, []byte) {
	caps := mixedCaptures(413)
	batch, err := BatchFromCaptures(1, caps)
	if err != nil {
		b.Fatal(err)
	}
	msg, err := EncodeMessage(batch)
	if err != nil {
		b.Fatal(err)
	}
	return caps, msg
}

var benchSink []byte

// BenchmarkBatchEncode is the agent's side of one batch: captures to
// wire batch to message bytes.
func BenchmarkBatchEncode(b *testing.B) {
	caps, _ := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := BatchFromCaptures(uint64(i), caps)
		if err != nil {
			b.Fatal(err)
		}
		if benchSink, err = EncodeMessage(batch); err != nil {
			b.Fatal(err)
		}
	}
}

var benchCaps []sniffer.Capture

// BenchmarkBatchDecode is the server's side of one batch: message bytes
// off the connection to captures for ingest.
func BenchmarkBatchDecode(b *testing.B) {
	_, msg := benchBatch(b)
	r := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(msg)
		m, err := ReadMessage(r)
		if err != nil {
			b.Fatal(err)
		}
		benchCaps = m.(*Batch).ToCaptures()
	}
}
