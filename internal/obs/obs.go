// Package obs is the observation database of the digital Marauder's map:
// it ingests captured 802.11 management frames and maintains, per mobile
// device, the set Γ of APs the device has been observed communicating with
// — the sole input the paper's localization algorithms need.
//
// It also tracks which devices were seen at all versus seen probing, the
// statistic behind the paper's feasibility experiment (Figs 10-11), and
// answers AP co-observation queries for AP-Rad's linear program.
//
// The store is sharded by device MAC: every device's records, seen/probing
// flags and probe fingerprints live in exactly one shard, each shard owns
// its own lock, and ingest of independent devices proceeds in parallel.
// Single-device queries (APSetWindow and friends) touch one shard;
// cross-device queries (Devices, APs, DeviceAPSets, CoObservationIndex,
// Save) merge per-shard snapshots — each shard's contribution is
// internally consistent, but a concurrent ingest may land between two
// shard reads, exactly as a concurrent ingest could land after an
// unsharded query returned.
package obs

import (
	"cmp"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dot11"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Kind classifies an observation.
type Kind int

// Observation kinds.
const (
	// KindProbeRequest is a device's broadcast scan; it proves the device
	// is present (and probing) but names no AP.
	KindProbeRequest Kind = iota + 1
	// KindProbeResponse is an AP's reply to a device; it proves the
	// device-AP pair is communicable.
	KindProbeResponse
	// KindAssociation is association traffic between a device and its AP.
	KindAssociation
	// KindBeacon is an AP beacon; it proves the AP exists.
	KindBeacon
)

// Record is one pairwise observation between a device and an AP.
type Record struct {
	TimeSec float64   `json:"timeSec"`
	Device  dot11.MAC `json:"device"`
	AP      dot11.MAC `json:"ap"`
	Kind    Kind      `json:"kind"`
}

// FrameCapture is one captured frame queued for batched ingest — the
// (time, frame, AP-attribution) triple Ingest takes, in slice-friendly
// form so a whole capture batch pays each shard lock once.
type FrameCapture struct {
	TimeSec float64
	Frame   *dot11.Frame
	FromAP  bool
}

// Store accumulates observations. It is safe for concurrent use.
type Store struct {
	shards []*shard
	mask   uint32
}

// shard owns every piece of state keyed by one slice of the MAC hash
// space: the per-device record logs, the seen/probing sets, the probe
// fingerprints, and the APs registered through this shard's devices.
type shard struct {
	mu          sync.RWMutex
	nrec        int // pairwise records held (Σ len(byDev[*].recs))
	byDev       map[dot11.MAC]*deviceLog
	seen        map[dot11.MAC]float64 // device -> first seen time
	probing     map[dot11.MAC]bool
	aps         map[dot11.MAC]bool
	probedSSIDs map[dot11.MAC]map[string]bool
	recGauge    *telemetry.Gauge
}

// deviceLog is one device's pairwise records, kept in canonical time order
// (NaN timestamps first, then ascending) so window queries binary-search
// instead of scanning the whole store. Captures almost always arrive in
// time order, so the sort is usually a no-op; an out-of-order ingest just
// clears the flag and the next window query re-sorts once.
type deviceLog struct {
	recs   []Record
	sorted bool
}

// timeLess is the canonical record time order: NaN first, then ascending.
// A plain < comparison is not enough — NaN compares false against
// everything, so a NaN-timestamped record would leave the sorted flag set
// while actually breaking the order, and the binary search would silently
// drop records behind it.
func timeLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// DefaultShardCount is the shard count NewStore uses: GOMAXPROCS rounded
// up to a power of two, so the MAC-hash masking stays a single AND.
func DefaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewStore creates an empty Store with DefaultShardCount shards.
func NewStore() *Store {
	return NewStoreShards(0)
}

// NewStoreShards creates an empty Store with the given shard count,
// rounded up to a power of two; n <= 0 means DefaultShardCount. One shard
// reproduces the unsharded store: a single lock serializing everything.
func NewStoreShards(n int) *Store {
	if n <= 0 {
		n = DefaultShardCount()
	}
	p := 1
	for p < n {
		p <<= 1
	}
	s := &Store{shards: make([]*shard, p), mask: uint32(p - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{
			byDev:    make(map[dot11.MAC]*deviceLog),
			seen:     make(map[dot11.MAC]float64),
			probing:  make(map[dot11.MAC]bool),
			aps:      make(map[dot11.MAC]bool),
			recGauge: shardRecordGauge(i),
		}
	}
	return s
}

// ShardCount returns the number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// shardIndex hashes a MAC (FNV-1a) onto a shard.
func (s *Store) shardIndex(m dot11.MAC) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range m {
		h ^= uint32(b)
		h *= prime32
	}
	return h & s.mask
}

func (s *Store) shardFor(m dot11.MAC) *shard { return s.shards[s.shardIndex(m)] }

// addRecordLocked appends one pairwise record to the device index. Caller
// holds the shard write lock.
func (sh *shard) addRecordLocked(r Record) {
	dl := sh.byDev[r.Device]
	if dl == nil {
		dl = &deviceLog{sorted: true}
		sh.byDev[r.Device] = dl
	}
	if n := len(dl.recs); n > 0 && timeLess(r.TimeSec, dl.recs[n-1].TimeSec) {
		dl.sorted = false
		mOutOfOrder.Inc()
	}
	dl.recs = append(dl.recs, r)
	sh.nrec++
	mRecords.Inc()
}

func (sh *shard) markSeenLocked(dev dot11.MAC, timeSec float64) {
	if _, ok := sh.seen[dev]; !ok {
		sh.seen[dev] = timeSec
	}
}

// frameOwner classifies a frame and returns the MAC whose shard owns all
// of the frame's state mutations; ok is false for frames that are no-ops
// (non-management, unknown subtypes, untrusted beacons).
func frameOwner(f *dot11.Frame, fromAP bool) (dot11.MAC, bool) {
	if f == nil || f.Type != dot11.TypeManagement {
		return dot11.MAC{}, false
	}
	switch f.Subtype {
	case dot11.SubtypeProbeRequest:
		return f.Addr2, true
	case dot11.SubtypeProbeResp:
		return f.Addr1, true
	case dot11.SubtypeAssocReq:
		return f.Addr2, true
	case dot11.SubtypeBeacon:
		return f.Addr2, fromAP
	}
	return dot11.MAC{}, false
}

// applyFrameLocked applies one classified frame's state changes. Caller
// holds the shard write lock; the shard must be the frameOwner's.
func (sh *shard) applyFrameLocked(timeSec float64, f *dot11.Frame, fromAP bool) {
	switch f.Subtype {
	case dot11.SubtypeProbeRequest:
		sh.markSeenLocked(f.Addr2, timeSec)
		sh.probing[f.Addr2] = true
		if ssid, ok := f.SSID(); ok {
			sh.recordProbeSSIDLocked(f.Addr2, ssid)
		}
	case dot11.SubtypeProbeResp:
		sh.markSeenLocked(f.Addr1, timeSec)
		sh.aps[f.Addr2] = true
		sh.addRecordLocked(Record{
			TimeSec: timeSec, Device: f.Addr1, AP: f.Addr2, Kind: KindProbeResponse,
		})
	case dot11.SubtypeAssocReq:
		sh.markSeenLocked(f.Addr2, timeSec)
		sh.aps[f.Addr1] = true
		sh.addRecordLocked(Record{
			TimeSec: timeSec, Device: f.Addr2, AP: f.Addr1, Kind: KindAssociation,
		})
	case dot11.SubtypeBeacon:
		if fromAP {
			sh.aps[f.Addr2] = true
		}
	}
}

// Ingest classifies one captured frame. fromAP tells whether the capture
// pipeline attributed the frame to an AP transmitter.
func (s *Store) Ingest(timeSec float64, f *dot11.Frame, fromAP bool) {
	owner, ok := frameOwner(f, fromAP)
	if !ok {
		return
	}
	sh := s.shardFor(owner)
	sh.mu.Lock()
	sh.applyFrameLocked(timeSec, f, fromAP)
	sh.recGauge.Set(float64(sh.nrec))
	sh.mu.Unlock()
}

// IngestFrames is the batched form of Ingest: the batch is grouped by
// shard and each shard's lock is taken once, so a pcap replay or a
// simulated capture burst stops paying one lock round-trip per frame.
// It returns how many frames changed store state.
func (s *Store) IngestFrames(batch []FrameCapture) int {
	if len(batch) == 0 {
		return 0
	}
	defer mIngestSeconds.ObserveSince(time.Now())
	mBatchFrames.Observe(float64(len(batch)))
	if len(s.shards) == 1 {
		sh := s.shards[0]
		n := 0
		sh.mu.Lock()
		for _, c := range batch {
			if _, ok := frameOwner(c.Frame, c.FromAP); ok {
				sh.applyFrameLocked(c.TimeSec, c.Frame, c.FromAP)
				n++
			}
		}
		sh.recGauge.Set(float64(sh.nrec))
		sh.mu.Unlock()
		return n
	}
	shardOf := make([]int32, len(batch))
	counts := make([]int32, len(s.shards))
	n := 0
	for i, c := range batch {
		owner, ok := frameOwner(c.Frame, c.FromAP)
		if !ok {
			shardOf[i] = -1
			continue
		}
		si := int32(s.shardIndex(owner))
		shardOf[i] = si
		counts[si]++
		n++
	}
	buckets := make([][]int32, len(s.shards))
	for si, c := range counts {
		if c > 0 {
			buckets[si] = make([]int32, 0, c)
		}
	}
	for i, si := range shardOf {
		if si >= 0 {
			buckets[si] = append(buckets[si], int32(i))
		}
	}
	for si, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		for _, i := range idx {
			c := batch[i]
			sh.applyFrameLocked(c.TimeSec, c.Frame, c.FromAP)
		}
		sh.recGauge.Set(float64(sh.nrec))
		sh.mu.Unlock()
	}
	return n
}

// IngestBatch appends pre-classified pairwise records in bulk, grouped by
// device shard with each shard lock taken once. Every record is appended
// verbatim — Len grows by exactly len(recs) — and, like the frame paths
// that produce records, the device is marked seen and the AP registered.
// It returns len(recs).
func (s *Store) IngestBatch(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	defer mIngestSeconds.ObserveSince(time.Now())
	mBatchFrames.Observe(float64(len(recs)))
	for si, sh := range s.shards {
		first := true
		for _, r := range recs {
			if s.shardIndex(r.Device) != uint32(si) {
				continue
			}
			if first {
				sh.mu.Lock()
				first = false
			}
			sh.markSeenLocked(r.Device, r.TimeSec)
			sh.aps[r.AP] = true
			sh.addRecordLocked(r)
		}
		if !first {
			sh.recGauge.Set(float64(sh.nrec))
			sh.mu.Unlock()
		}
	}
	return len(recs)
}

// Len returns the number of pairwise records.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.nrec
		sh.mu.RUnlock()
	}
	return n
}

// ShardLens returns the pairwise record count per shard, for operational
// introspection of the hash balance.
func (s *Store) ShardLens() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		out[i] = sh.nrec
		sh.mu.RUnlock()
	}
	return out
}

// Devices returns every device ever seen, sorted by address. A device
// lives in exactly one shard, so the merge needs no dedup.
func (s *Store) Devices() []dot11.MAC {
	var out []dot11.MAC
	for _, sh := range s.shards {
		sh.mu.RLock()
		for m := range sh.seen {
			out = append(out, m)
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, compareMACs)
	return out
}

// ProbingDevices returns the devices observed sending probe requests.
func (s *Store) ProbingDevices() []dot11.MAC {
	var out []dot11.MAC
	for _, sh := range s.shards {
		sh.mu.RLock()
		for m := range sh.probing {
			out = append(out, m)
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, compareMACs)
	return out
}

// APs returns every AP ever observed, sorted by address. An AP is
// registered in the shard of whichever device heard it, so the union
// dedups across shards.
func (s *Store) APs() []dot11.MAC {
	set := make(map[dot11.MAC]bool)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for m := range sh.aps {
			set[m] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]dot11.MAC, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	slices.SortFunc(out, compareMACs)
	return out
}

// APSet returns Γ, the set of APs the device has communicated with over the
// whole observation history, sorted by address.
func (s *Store) APSet(dev dot11.MAC) []dot11.MAC {
	return s.APSetWindow(dev, 0, maxFloat)
}

const maxFloat = 1.797693134862315708145274237317043567981e308

// APSetWindow returns Γ restricted to observations with start ≤ t < end —
// the per-position observation when tracking a moving device. The result
// is deduplicated and in ascending MAC order (deterministic across calls
// and store layouts).
func (s *Store) APSetWindow(dev dot11.MAC, start, end float64) []dot11.MAC {
	return s.AppendAPSetWindow(nil, dev, start, end)
}

// AppendAPSetWindow appends the window's Γ to dst and returns the extended
// slice, in the same deduplicated ascending-MAC order as APSetWindow. It
// is the allocation-friendly form for hot loops: pass dst[:0] of a reused
// buffer and no per-call allocation happens once the buffer has grown.
//
// The query binary-searches the device's time-sorted record log rather
// than scanning the whole store. When out-of-order ingest has dirtied the
// log, the re-sort and the search happen under one shard write lock, so a
// record ingested before the query began is always in the result — there
// is no window in which the re-sort can hide it.
func (s *Store) AppendAPSetWindow(dst []dot11.MAC, dev dot11.MAC, start, end float64) []dot11.MAC {
	dst, _, _ = s.appendAPSetWindow(dst, dev, start, end)
	return dst
}

// AppendAPSetWindowTrace is AppendAPSetWindow with the query annotated
// onto an open trace span: how many records the window matched, the
// deduplicated |Γ|, and whether out-of-order ingest forced a re-sort of
// the device log under the query. sp may be nil (nothing is annotated).
func (s *Store) AppendAPSetWindowTrace(dst []dot11.MAC, dev dot11.MAC, start, end float64, sp *trace.SpanHandle) []dot11.MAC {
	base := len(dst)
	dst, scanned, resorted := s.appendAPSetWindow(dst, dev, start, end)
	if sp != nil {
		sp.Attr("records", scanned).Attr("gamma", len(dst)-base)
		if resorted {
			sp.Attr("resorted", true)
		}
	}
	return dst
}

// appendAPSetWindow answers the window query and reports how many records
// the window matched (before AP deduplication) and whether it re-sorted
// the device log.
func (s *Store) appendAPSetWindow(dst []dot11.MAC, dev dot11.MAC, start, end float64) (out []dot11.MAC, matched int, resorted bool) {
	sh := s.shardFor(dev)
	sh.mu.RLock()
	dl := sh.byDev[dev]
	if dl == nil {
		sh.mu.RUnlock()
		return dst, 0, false
	}
	if dl.sorted {
		dst, matched = appendWindow(dst, dl.recs, start, end)
		sh.mu.RUnlock()
		return dst, matched, false
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	if dl = sh.byDev[dev]; dl != nil {
		sh.sortDeviceLogLocked(dev, dl)
		dst, matched = appendWindow(dst, dl.recs, start, end)
		resorted = true
	}
	sh.mu.Unlock()
	return dst, matched, resorted
}

// appendWindow appends the window's Γ — the distinct APs of the records
// with start ≤ t < end in a canonically ordered log, ascending by MAC —
// to dst, and returns it with the number of records the window matched
// before deduplication. Each AP is inserted into the sorted, duplicate-
// free tail as it is scanned, so no sort or compaction pass follows.
// NaN-timestamped records sort to the front and match no window
// (NaN ≥ start is false for every start); a NaN end matches nothing
// (t < NaN is false for every t).
func appendWindow(dst []dot11.MAC, recs []Record, start, end float64) ([]dot11.MAC, int) {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].TimeSec >= start })
	hi := lo + sort.Search(len(recs)-lo, func(i int) bool { return !(recs[lo+i].TimeSec < end) })
	base := len(dst)
	for _, r := range recs[lo:hi] {
		dst = insertAP(dst, base, r.AP)
	}
	return dst, hi - lo
}

// insertAP adds ap to the set dst[base:], which it keeps in ascending
// macKey order without duplicates: a binary search finds the slot and a
// copy shifts the tail up by one. An AP already in the set is a no-op.
func insertAP(dst []dot11.MAC, base int, ap dot11.MAC) []dot11.MAC {
	k := macKey(ap)
	lo, hi := base, len(dst)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if macKey(dst[h]) < k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo < len(dst) && dst[lo] == ap {
		return dst
	}
	dst = append(dst, dot11.MAC{})
	copy(dst[lo+1:], dst[lo:])
	dst[lo] = ap
	return dst
}

// sortDeviceLogLocked restores a device log's canonical time order after
// out-of-order ingest. Caller holds the shard write lock.
func (sh *shard) sortDeviceLogLocked(dev dot11.MAC, dl *deviceLog) {
	if dl.sorted {
		return
	}
	sort.SliceStable(dl.recs, func(i, j int) bool {
		return timeLess(dl.recs[i].TimeSec, dl.recs[j].TimeSec)
	})
	dl.sorted = true
	mResorts.Inc()
	slog.Debug("re-sorted device log after out-of-order ingest",
		"component", "obs", "device", dev.String(), "records", len(dl.recs))
}

// DeviceAPSets returns Γ_k for every device with at least one pairwise
// record, over the whole history.
func (s *Store) DeviceAPSets() map[dot11.MAC][]dot11.MAC {
	out := make(map[dot11.MAC][]dot11.MAC)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for dev, dl := range sh.byDev {
			var l []dot11.MAC
			for _, r := range dl.recs {
				l = insertAP(l, 0, r.AP)
			}
			out[dev] = l
		}
		sh.mu.RUnlock()
	}
	return out
}

// CoObserved reports whether some device observed both APs within
// windowSec of each other — the evidence for AP-Rad's r_i + r_j ≥ d_ij
// constraint.
func (s *Store) CoObserved(ap1, ap2 dot11.MAC, windowSec float64) bool {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, dl := range sh.byDev {
			if deviceCoObservesLocked(dl.recs, ap1, ap2, windowSec) {
				sh.mu.RUnlock()
				return true
			}
		}
		sh.mu.RUnlock()
	}
	return false
}

// deviceCoObservesLocked reports whether one device's log places both APs
// within windowSec of each other. The same-AP case degenerates to "was
// this AP observed at all" (a record co-observes with itself at Δt = 0).
func deviceCoObservesLocked(recs []Record, ap1, ap2 dot11.MAC, windowSec float64) bool {
	if ap1 == ap2 {
		for _, r := range recs {
			if r.AP == ap1 {
				return true
			}
		}
		return false
	}
	for _, r1 := range recs {
		if r1.AP != ap1 {
			continue
		}
		for _, r2 := range recs {
			if r2.AP == ap2 && absf(r1.TimeSec-r2.TimeSec) <= windowSec {
				return true
			}
		}
	}
	return false
}

// CoObservationIndex returns, for every device, the list of (time, AP)
// pairs — a compact form the AP-Rad constraint builder iterates once
// instead of calling CoObserved per pair. Each device's records come back
// in that device's ingest order (canonical time order once a window query
// has re-sorted the log).
func (s *Store) CoObservationIndex() map[dot11.MAC][]Record {
	out := make(map[dot11.MAC][]Record)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for dev, dl := range sh.byDev {
			out[dev] = append([]Record(nil), dl.recs...)
		}
		sh.mu.RUnlock()
	}
	return out
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// macKey packs a MAC into an integer whose order is the address's byte
// order, so one comparison orders two MACs.
func macKey(m dot11.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// compareMACs orders MACs ascending by address, for slices.SortFunc.
func compareMACs(a, b dot11.MAC) int { return cmp.Compare(macKey(a), macKey(b)) }
