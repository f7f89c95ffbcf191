package dot11

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecode hammers the 802.11 frame parser with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to the same wire
// bytes (parse/serialize round-trip stability).
func FuzzDecode(f *testing.F) {
	seed1, _ := NewBeacon(MAC{1, 2, 3, 4, 5, 6}, "seed", 6, 42, 7).Encode()
	seed2, _ := NewProbeRequest(MAC{9, 8, 7, 6, 5, 4}, "", 1).Encode()
	f.Add(seed1)
	f.Add(seed2)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data)
		if err != nil {
			return
		}
		re, err := frame.Encode()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip changed bytes:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzFrameParse drives the full parse surface the observation pipeline
// touches on every capture: Decode, then for accepted frames the element
// accessors (SSID, Channel), channel math, and the encode round trip.
// None of it may panic, and derived values must stay in range.
func FuzzFrameParse(f *testing.F) {
	seed1, _ := NewBeacon(MAC{0xA0, 1, 2, 3, 4, 5}, "corp-net", 11, 100, 9).Encode()
	seed2, _ := NewProbeRequest(MAC{0xDD, 0, 0, 0, 0, 1}, "home", 3).Encode()
	seed3, _ := NewProbeResponse(MAC{0xA0, 9}, MAC{0xDD, 9}, "café ☕", 14, 2).Encode()
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add([]byte{0x40, 0x00, 0x00, 0x00}) // truncated probe request
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data)
		if err != nil {
			return
		}
		if ssid, ok := frame.SSID(); ok && len(ssid) > 255 {
			t.Fatalf("SSID longer than an element can carry: %d bytes", len(ssid))
		}
		if ch, ok := frame.Channel(); ok {
			if freq, err := ChannelFreqHz(ch); err == nil {
				if freq < 2.4e9 || freq > 2.5e9 {
					t.Fatalf("channel %d mapped to out-of-band frequency %v", ch, freq)
				}
				for rx := 1; rx <= 14; rx++ {
					if ov := SpectralOverlap(ch, rx); ov < 0 || ov > 1 {
						t.Fatalf("SpectralOverlap(%d,%d) = %v out of [0,1]", ch, rx, ov)
					}
				}
			}
		}
		re, err := frame.Encode()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip changed bytes:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzDecodeInto holds the aliasing parser to the copying one: on any
// bytes, DecodeInto into a reused frame carrying stale fields and IEs
// must fail with the same error as Decode or produce the same frame.
func FuzzDecodeInto(f *testing.F) {
	seed1, _ := NewBeacon(MAC{0xA0, 1, 2, 3, 4, 5}, "corp-net", 11, 100, 9).Encode()
	seed2, _ := NewProbeRequest(MAC{0xDD, 0, 0, 0, 0, 1}, "", 3).Encode()
	seed3, _ := (&Frame{Type: TypeManagement, Subtype: SubtypeAssocReq, Seq: MaxSeq, Frag: MaxFrag}).Encode()
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed1[:30])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := Decode(data)
		got := &Frame{Subtype: SubtypeProbeResp, Timestamp: 5, Seq: 1, IEs: []IE{{ID: 9, Data: []byte{1}}, {ID: 3}}}
		err := DecodeInto(got, data)
		if wantErr != nil || err != nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("DecodeInto error %v, Decode error %v", err, wantErr)
			}
			return
		}
		if len(got.IEs) == 0 {
			got.IEs = nil // a reused array stays non-nil; Decode starts from nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeInto\n got %+v\nDecode\n got %+v", got, want)
		}
		for i, ie := range got.IEs {
			if cap(ie.Data) != len(ie.Data) {
				t.Fatalf("IE %d data has spare capacity into the input", i)
			}
		}
	})
}

// FuzzDecodeRadiotap checks the radiotap splitter never panics and never
// returns a body that escapes the input buffer.
func FuzzDecodeRadiotap(f *testing.F) {
	frame, _ := NewProbeRequest(MAC{1}, "x", 0).Encode()
	f.Add(EncodeRadiotap(Radiotap{ChannelMHz: 2437, SignalDBm: -60, NoiseDBm: -95}, frame))
	f.Add([]byte{0, 0, 8, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, body, err := DecodeRadiotap(data)
		if err != nil {
			return
		}
		if len(body) > len(data) {
			t.Fatalf("body longer than input: %d > %d", len(body), len(data))
		}
	})
}
