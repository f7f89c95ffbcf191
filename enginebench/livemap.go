package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sniffer"
)

// Live-map cadence, in simulated seconds.
const (
	frameEverySec = 10  // one map frame
	trackEverySec = 60  // one tracked trajectory
	trackSpanSec  = 600 // the trajectory covers the last ten minutes
	trackStepSec  = 30
	// trackOffsetSec keeps trajectory windows off the snapshot windows,
	// whose centres are multiples of frameEverySec, so a Track does not
	// merely replay Γs the frames already cached.
	trackOffsetSec = 5
	windowSec      = 60 // engine observation window
	checkEvery     = 6  // every 6th frame of the first round is checked
)

// sampledFrame is a map frame over observations in [start, end), kept
// for the output checks.
type sampledFrame struct {
	start, end float64
	frame      map[dot11.MAC]core.Estimate
}

// sampledTrack is a trajectory kept for the output checks.
type sampledTrack struct {
	dev        dot11.MAC
	start, end float64
	ingested   float64 // captures with TimeSec ≤ ingested were in the store
	points     []core.TrackPoint
}

// runLiveMap ingests the slice in capture order and draws the map as it
// goes: every frameEverySec one Snapshot of the window ending now, and
// every trackEverySec one Track over the last trackSpanSec of each
// random-waypoint device heard in that span. M-Loc with the Γ cache on. Each round replays the slice
// into a fresh engine.
func runLiveMap(w *world, rc runConfig) (*outcome, error) {
	tr := rc.tr
	var (
		frameMs, trackMs        []float64
		rounds                  int
		attempted, failed, hits uint64
		unlocatable             uint64
		eng                     *engine.Engine
		frames                  []sampledFrame
		tracks                  []sampledTrack
		digest                  = sha256.New()
		win                     windowStats
		nTracks                 int
		roundDur                []time.Duration
		lo, hi                  = w.Slice[0], w.Slice[1]
		obsReplica              time.Duration
	)
	start, from := time.Now(), tr.nowOr0()
	for ; rounds == 0 || time.Since(start).Seconds() < rc.seconds; rounds++ {
		r0 := time.Now()
		tr.setRun(rounds)
		loc, counter, err := wrapLocalizer(core.MLocalizer{}, tr)
		if err != nil {
			return nil, err
		}
		eng, err = engine.New(engine.Config{Know: w.Know, Localizer: loc, WindowSec: windowSec})
		if err != nil {
			return nil, err
		}
		next, replica, workers := 0, replicaStore(tr), eng.Stats().Workers
		for i := 1; lo+float64(i*frameEverySec) <= hi; i++ {
			now := lo + float64(i*frameEverySec)
			var d time.Duration
			next, d = ingestUpTo(tr, eng, replica, w.Caps, next, now)
			obsReplica += d

			id := tr.enter("engine.snapshot")
			t0 := time.Now()
			frame := eng.Snapshot(now - windowSec/2)
			frameMs = append(frameMs, time.Since(t0).Seconds()*1e3)
			tr.leave(id)
			if tr != nil {
				obsReplica += win.replica(tr, eng.Store(), nil, [][2]float64{{now - windowSec, now}}, workers)
			}
			if rounds == 0 {
				hashFrame(digest, frame)
				if i%checkEvery == 0 {
					frames = append(frames, sampledFrame{start: now - windowSec, end: now, frame: frame})
				}
			}

			if i*frameEverySec%trackEverySec != 0 || now-lo < trackSpanSec {
				continue
			}
			end := now - trackOffsetSec
			for _, dev := range w.activeWalkers(end-trackSpanSec, now) {
				id = tr.enter("engine.track")
				t0 = time.Now()
				pts, err := eng.Track(dev, end-trackSpanSec, end, trackStepSec)
				trackMs = append(trackMs, time.Since(t0).Seconds()*1e3)
				tr.leave(id)
				if err != nil {
					failed++
				}
				if tr != nil {
					var windows [][2]float64
					for ts := end - trackSpanSec; ts <= end; ts += trackStepSec {
						windows = append(windows, [2]float64{ts - windowSec/2, math.Min(ts+windowSec/2, math.Nextafter(now, math.Inf(1)))})
					}
					obsReplica += win.replica(tr, eng.Store(), []dot11.MAC{dev}, windows, 1)
				}
				if rounds == 0 {
					hashTrack(digest, pts)
					if nTracks++; nTracks%checkEvery == 0 {
						tracks = append(tracks, sampledTrack{dev: dev, start: end - trackSpanSec, end: end, ingested: now, points: pts})
					}
				}
			}
		}
		st := eng.Stats()
		attempted += st.Fixes
		hits += st.CacheHits
		failed += counter.failed.Load()
		unlocatable += counter.unlocatable.Load()
		roundDur = append(roundDur, time.Since(r0))
	}
	to := tr.nowOr0()

	o := &outcome{e2e: newMetricSet(), layers: newMetricSet(), keep: eng}
	o.attempted, o.failed = attempted, failed
	o.e2e.set("unlocatable", float64(unlocatable), "count")
	digest.Sum(o.digest[:0])
	b := o.traced(tr, from, to)
	o.throughput = (hi - lo) / o.medianRound(roundDur).Seconds()
	o.e2e.set("throughput", o.throughput, "1/s")
	o.e2e.set("sim_speedup", o.throughput, "1/s")
	o.e2e.latency("op_ms", frameMs, "ms")
	o.e2e.latency("aux_ms", trackMs, "ms")
	o.e2e.latency("frame_ms", frameMs, "ms")
	o.e2e.latency("track_ms", trackMs, "ms")
	o.e2e.set("rounds", float64(rounds), "count")

	ref := referenceStore(w.Caps)
	meanErr, err := checkFrames(ref, w.Know, frames, w.TruthAt)
	o.checks = errors.Join(err, checkTracks(ref, w.Know, tracks))
	o.e2e.set("mean_error_m", meanErr, "m")

	if tr != nil {
		l := o.layers
		ingest, _ := spanStats(o.spans, "engine.ingest")
		snap, _ := spanStats(o.spans, "engine.snapshot")
		track, _ := spanStats(o.spans, "engine.track")
		obsIngest, _ := spanStats(o.spans, "obs.ingest")
		locate, nLocate := spanStats(o.spans, "core.locate")
		tloc, nTloc := spanStats(o.spans, "core.track_locate")
		l.set("engine.ingest_s", ingest.Seconds(), "s")
		l.set("engine.ingest_fps_busy", float64(rounds*len(w.Caps))/ingest.Seconds(), "1/s")
		l.set("engine.snapshot_s", snap.Seconds(), "s")
		l.set("engine.track_s", track.Seconds(), "s")
		l.set("engine.cache_hit_ratio", float64(hits)/float64(attempted), "ratio")
		l.set("engine.fixes", float64(attempted), "count")
		l.set("obs.ingest_s", obsIngest.Seconds(), "s")
		l.set("obs.window_us", perCallMicros(win.busy, win.calls), "us")
		l.set("obs.gamma_k.mean", float64(win.gammaSum)/float64(max(win.nonEmpty, 1)), "count")
		l.set("obs.records", float64(eng.Stats().ObsRecords), "count")
		l.set("core.locate_us", perCallMicros(locate, nLocate), "us")
		l.set("core.locate_calls", float64(nLocate), "count")
		l.set("core.track_locate_us", perCallMicros(tloc, nTloc), "us")
		setBudget(l, b, obsReplica, 0)
	}
	return o, nil
}

// ingestUpTo ingests the captures from index next on that have
// TimeSec ≤ end, as one engine call, and returns the index of the first
// capture left. On a traced pass it replicates the store ingest into
// replica outside the timed path and returns the replica's duration.
func ingestUpTo(tr *tracer, eng *engine.Engine, replica *obs.Store, caps []sniffer.Capture, next int, end float64) (int, time.Duration) {
	j := next
	for j < len(caps) && caps[j].TimeSec <= end {
		j++
	}
	if j == next {
		return j, 0
	}
	id := tr.enter("engine.ingest")
	eng.IngestCaptures(caps[next:j])
	tr.leave(id)
	if tr == nil {
		return j, 0
	}
	id = tr.beginReplica("bench.prep")
	fc := frameCaptures(caps[next:j])
	tr.end(id)
	id = tr.beginReplica("obs.ingest")
	t0 := time.Now()
	replica.IngestFrames(fc)
	d := time.Since(t0)
	tr.end(id)
	return j, d
}

// replicaStore is the store a traced round replicates its ingest into;
// nil on an untraced pass.
func replicaStore(tr *tracer) *obs.Store {
	if tr == nil {
		return nil
	}
	return obs.NewStore()
}

// windowStats accumulates the window-assembly replicas.
type windowStats struct {
	calls, nonEmpty, gammaSum int
	busy                      time.Duration // summed over the replica workers
}

// replica repeats a call's window assembly outside the timed path, one
// AppendAPSetWindow per device and window, and returns its wall time.
// nil devs means every device of the store, as a snapshot lists them.
// The devices are split evenly over workers goroutines, as many as the
// engine's snapshot fans out over, so the wall time is comparable with
// the traced call's.
func (ws *windowStats) replica(tr *tracer, store *obs.Store, devs []dot11.MAC, windows [][2]float64, workers int) time.Duration {
	root := tr.beginReplica("obs.window")
	t0 := time.Now()
	if devs == nil {
		devs = store.Devices()
	}
	parts := make([]windowStats, max(1, min(workers, len(devs))))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(p *windowStats, devs []dot11.MAC) {
			defer wg.Done()
			id := tr.open("obs.window_worker", root, true)
			w0 := time.Now()
			var buf []dot11.MAC
			for _, d := range devs {
				for _, win := range windows {
					buf = store.AppendAPSetWindow(buf[:0], d, win[0], win[1])
					p.calls++
					if len(buf) > 0 {
						p.nonEmpty++
						p.gammaSum += len(buf)
					}
				}
			}
			p.busy = time.Since(w0)
			tr.end(id)
		}(&parts[i], devs[i*len(devs)/len(parts):(i+1)*len(devs)/len(parts)])
	}
	wg.Wait()
	wall := time.Since(t0)
	tr.end(root)
	for _, p := range parts {
		ws.calls += p.calls
		ws.nonEmpty += p.nonEmpty
		ws.gammaSum += p.gammaSum
		ws.busy += p.busy
	}
	return wall
}

// referenceStore ingests every capture into a fresh store, the way the
// engine does.
func referenceStore(caps []sniffer.Capture) *obs.Store {
	s := obs.NewStore()
	s.IngestFrames(frameCaptures(caps))
	return s
}

// checkFrames compares each sampled frame with a sequential, cache-off
// M-Loc over the same windows of a store holding the whole slice, and
// returns the mean localization error against ground truth.
func checkFrames(ref *obs.Store, know core.Knowledge, frames []sampledFrame, truth func(dot11.MAC, float64) (geom.Point, bool)) (float64, error) {
	var errSum float64
	var n int
	for _, f := range frames {
		err := checkFrame(ref, know, core.MLocalizer{}, f, func(d dot11.MAC, est core.Estimate) {
			if p, ok := truth(d, (f.start+f.end)/2); ok {
				errSum += est.Pos.Dist(p)
				n++
			}
		})
		if err != nil {
			return 0, fmt.Errorf("live_map: %w", err)
		}
	}
	if n == 0 {
		return 0, errors.New("live_map: no sampled fix to check")
	}
	return errSum / float64(n), nil
}

// checkFrame compares a frame with a sequential, cache-off localization
// by loc over the same windows of ref: the same devices, and positions
// equal bit for bit. visit, when set, sees every checked estimate.
func checkFrame(ref *obs.Store, know core.Knowledge, loc core.Localizer, f sampledFrame, visit func(dot11.MAC, core.Estimate)) error {
	want := 0
	for _, d := range ref.Devices() {
		gamma := ref.APSetWindow(d, f.start, f.end)
		if len(gamma) == 0 {
			continue
		}
		exp, err := loc.Locate(know, gamma)
		got, ok := f.frame[d]
		if err != nil {
			if ok {
				return fmt.Errorf("frame ending %.0f: %v located, reference failed: %v", f.end, d, err)
			}
			continue
		}
		want++
		if !ok || !sameEstimate(got, exp) {
			return fmt.Errorf("frame ending %.0f: %v at %v, reference %v", f.end, d, got.Pos, exp.Pos)
		}
		if visit != nil {
			visit(d, got)
		}
	}
	if len(f.frame) != want {
		return fmt.Errorf("frame ending %.0f has %d devices, reference %d", f.end, len(f.frame), want)
	}
	return nil
}

// checkTracks recomputes each sampled trajectory with sequential,
// cache-off M-Loc. The engine had ingested captures up to the track's
// ingest point only, so the reference windows stop there too.
func checkTracks(ref *obs.Store, know core.Knowledge, tracks []sampledTrack) error {
	if len(tracks) == 0 {
		return errors.New("live_map: no sampled track to check")
	}
	for _, t := range tracks {
		limit := math.Nextafter(t.ingested, math.Inf(1))
		var want []core.TrackPoint
		for i := 0; ; i++ {
			ts := t.start + float64(i)*trackStepSec
			if ts > t.end {
				break
			}
			gamma := ref.APSetWindow(t.dev, ts-windowSec/2, math.Min(ts+windowSec/2, limit))
			est, err := core.MLocalizer{}.Locate(know, gamma)
			if err != nil {
				continue
			}
			want = append(want, core.TrackPoint{TimeSec: ts, Est: est})
		}
		if len(want) != len(t.points) {
			return fmt.Errorf("live_map: track of %v at %.0f has %d points, reference %d", t.dev, t.end, len(t.points), len(want))
		}
		for i := range want {
			if want[i].TimeSec != t.points[i].TimeSec || !sameEstimate(t.points[i].Est, want[i].Est) {
				return fmt.Errorf("live_map: track of %v at %.0f differs at %.0f", t.dev, t.end, want[i].TimeSec)
			}
		}
	}
	return nil
}

// sameEstimate compares position bit for bit, plus disc count and method.
func sameEstimate(a, b core.Estimate) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		a.K == b.K && a.Method == b.Method
}

// hashFrame feeds a frame into h in device order.
func hashFrame(h hash.Hash, frame map[dot11.MAC]core.Estimate) {
	devs := make([]dot11.MAC, 0, len(frame))
	for d := range frame {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool { return lessMAC(devs[i], devs[j]) })
	for _, d := range devs {
		h.Write(d[:])
		hashEstimate(h, frame[d])
	}
}

func hashTrack(h hash.Hash, pts []core.TrackPoint) {
	for _, p := range pts {
		writeFloat(h, p.TimeSec)
		hashEstimate(h, p.Est)
	}
}

func hashEstimate(h hash.Hash, e core.Estimate) {
	writeFloat(h, e.Pos.X)
	writeFloat(h, e.Pos.Y)
	writeFloat(h, float64(e.K))
}

func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}
