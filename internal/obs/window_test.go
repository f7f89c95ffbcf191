package obs

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dot11"
	"repro/internal/telemetry/trace"
)

// referenceWindow is the naive window assembly the store's dedup-on-scan
// path must reproduce: collect the AP of every record with
// start ≤ t < end, sort, dedup. It also returns the matched-record count.
func referenceWindow(recs []Record, start, end float64) ([]dot11.MAC, int) {
	var gamma []dot11.MAC
	for _, r := range recs {
		if start <= r.TimeSec && r.TimeSec < end {
			gamma = append(gamma, r.AP)
		}
	}
	matched := len(gamma)
	sort.Slice(gamma, func(i, j int) bool { return bytes.Compare(gamma[i][:], gamma[j][:]) < 0 })
	uniq := gamma[:0]
	for i, m := range gamma {
		if i == 0 || m != gamma[i-1] {
			uniq = append(uniq, m)
		}
	}
	return uniq, matched
}

// shadowLog mirrors what the store knows about one device's log order:
// the time of its tail record and whether an ingest landed behind it
// since the last window query, which makes that query re-sort.
type shadowLog struct {
	recs  []Record
	tail  float64
	dirty bool
}

func (l *shadowLog) add(r Record) {
	if len(l.recs) > 0 && timeLess(r.TimeSec, l.tail) {
		l.dirty = true
	}
	l.recs = append(l.recs, r)
	l.tail = r.TimeSec
}

// queried reports whether a window query finds the log dirty, and resets
// the tail to the canonical maximum the re-sort leaves there.
func (l *shadowLog) queried() bool {
	was := l.dirty
	if was {
		for i, r := range l.recs {
			if i == 0 || !timeLess(r.TimeSec, l.tail) {
				l.tail = r.TimeSec
			}
		}
		l.dirty = false
	}
	return was
}

// TestAppendAPSetWindowMatchesReference differentially tests the window
// assembly against referenceWindow on random logs: heavy AP repetition,
// NaN and ±Inf timestamps, out-of-order ingest interleaved with queries
// (so logs re-sort under the query), empty and inverted windows,
// start == end, infinite and NaN bounds, and a non-empty dst prefix. The
// traced form's records/gamma/resorted attributes are checked too.
func TestAppendAPSetWindowMatchesReference(t *testing.T) {
	tracer, err := trace.New(trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewStoreShards(shards)
			devs := make([]dot11.MAC, 10)
			shadow := make(map[dot11.MAC]*shadowLog)
			for i := range devs {
				devs[i] = dot11.MAC{0xDE, byte(rng.Intn(256)), 0, 0, 0, byte(i)}
				shadow[devs[i]] = &shadowLog{}
			}
			// A few APs differing in every byte position, so the
			// ordering cannot lean on the last byte alone.
			aps := []dot11.MAC{
				{0x00, 0x00, 0x00, 0x00, 0x00, 0xFF},
				{0x00, 0x00, 0x00, 0x00, 0x01, 0x00},
				{0x00, 0xFF, 0x00, 0x00, 0x00, 0x00},
				{0x01, 0x00, 0x00, 0x00, 0x00, 0x00},
				{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE},
				{0x7F, 0x80, 0x00, 0x12, 0x34, 0x56},
				{0x7F, 0x80, 0x00, 0x12, 0x34, 0x55},
			}
			randTime := func() float64 {
				switch p := rng.Float64(); {
				case p < 0.04:
					return math.NaN()
				case p < 0.06:
					return math.Inf(1)
				case p < 0.08:
					return math.Inf(-1)
				default:
					return float64(rng.Intn(200)) // integral: exact ties and boundaries
				}
			}
			randBound := func() float64 {
				if rng.Float64() < 0.1 {
					return randTime()
				}
				return float64(rng.Intn(220)) - 10
			}
			for step := 0; step < 300; step++ {
				var batch []Record
				for j, n := 0, 1+rng.Intn(20); j < n; j++ {
					r := Record{
						TimeSec: randTime(),
						Device:  devs[rng.Intn(len(devs))],
						AP:      aps[rng.Intn(len(aps))],
						Kind:    KindProbeResponse,
					}
					batch = append(batch, r)
					shadow[r.Device].add(r)
				}
				s.IngestBatch(batch)

				dev := devs[rng.Intn(len(devs))]
				start, end := randBound(), randBound()
				switch rng.Intn(4) {
				case 0:
					end = start
				case 1:
					start, end = math.Inf(-1), math.Inf(1)
				}
				var prefix []dot11.MAC
				for j := rng.Intn(3); j > 0; j-- {
					prefix = append(prefix, aps[rng.Intn(len(aps))])
				}
				want, wantMatched := referenceWindow(shadow[dev].recs, start, end)
				wantResorted := shadow[dev].queried()

				tr := tracer.Start(trace.KindFix, dev.String())
				sp := tr.StartSpan("window-query")
				got := s.AppendAPSetWindowTrace(append([]dot11.MAC(nil), prefix...), dev, start, end, sp)
				sp.End()
				tr.Finish(nil)

				if !slices.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("shards=%d seed=%d step=%d: prefix clobbered: %v, want %v", shards, seed, step, got[:len(prefix)], prefix)
				}
				if gamma := got[len(prefix):]; !slices.Equal(gamma, want) {
					t.Fatalf("shards=%d seed=%d step=%d: window [%v, %v) = %v, want %v", shards, seed, step, start, end, gamma, want)
				}
				attrs := tracer.Recent(1)[0].Spans[0].Attrs
				if attrs["records"] != wantMatched || attrs["gamma"] != len(want) {
					t.Fatalf("shards=%d seed=%d step=%d: attrs records=%v gamma=%v, want %d/%d",
						shards, seed, step, attrs["records"], attrs["gamma"], wantMatched, len(want))
				}
				if _, resorted := attrs["resorted"]; resorted != wantResorted {
					t.Fatalf("shards=%d seed=%d step=%d: resorted=%v, want %v", shards, seed, step, resorted, wantResorted)
				}
			}
		}
	}
}

// BenchmarkAppendAPSetWindow measures one Γ window query on a city-scale
// store: 10⁵ devices, each with a 12-record log over two minutes drawn
// from 6 nearby APs, queried with a 60 s window (about 6 matched records)
// into a reused buffer. Devices are visited in a scattered order so the
// shard maps and logs are not cache-resident.
func BenchmarkAppendAPSetWindow(b *testing.B) {
	const (
		nDevs   = 100_000
		perDev  = 12
		nearAPs = 6
	)
	s := NewStore()
	devs := make([]dot11.MAC, nDevs)
	recs := make([]Record, 0, nDevs*perDev)
	for d := range devs {
		devs[d] = dot11.MAC{0xDE, 0, 0, byte(d >> 16), byte(d >> 8), byte(d)}
		for i := 0; i < perDev; i++ {
			ap := (d/16 + i*7%nearAPs) % 4096
			recs = append(recs, Record{
				TimeSec: float64(i * 10),
				Device:  devs[d],
				AP:      dot11.MAC{0xA0, 0, 0, 0, byte(ap >> 8), byte(ap)},
				Kind:    KindProbeResponse,
			})
		}
	}
	s.IngestBatch(recs)
	recs = nil
	var buf []dot11.MAC
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := devs[(i*7919)%nDevs]
		buf = s.AppendAPSetWindow(buf[:0], dev, 30, 90)
	}
	b.ReportMetric(float64(len(buf)), "gamma")
}
