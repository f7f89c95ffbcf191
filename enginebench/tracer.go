package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
)

// span is one timed call from the benchmark into a layer. Its layer is
// the name's prefix before the first dot.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"` // index of the causing span; -1 for a root
	Run    int64         `json:"run"`    // replay round the call belongs to
	// Replica marks work the traced run does outside the timed path: a
	// repeated call that sizes work happening inside another layer's span
	// (see README), or the benchmark's preparation for one ("bench.prep").
	Replica bool `json:"replica,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untimed path pays one nil check per call.
type tracer struct {
	epoch time.Time
	run   atomic.Int64
	cur   atomic.Int32 // span the engine is serving: parent of wrapper spans

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32) int32 {
	return t.open(name, parent, false)
}

// beginReplica opens a root span for a replicated call. A replica that
// fans out opens its workers' spans as its children with open.
func (t *tracer) beginReplica(name string) int32 {
	return t.open(name, -1, true)
}

func (t *tracer) open(name string, parent int32, replica bool) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Run: t.run.Load(), Replica: replica})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// enter opens an engine-call span and makes it the parent of the wrapper
// spans the engine's workers open until leave.
func (t *tracer) enter(name string) int32 {
	if t == nil {
		return -1
	}
	id := t.begin(name, -1)
	t.cur.Store(id)
	return id
}

func (t *tracer) leave(id int32) {
	if t == nil {
		return
	}
	t.cur.Store(-1)
	t.end(id)
}

// curParent is the engine call in flight, the parent of wrapper spans.
func (t *tracer) curParent() int32 {
	if t == nil {
		return -1
	}
	return t.cur.Load()
}

// setRun tags the spans opened from now on with replay round r.
func (t *tracer) setRun(r int) {
	if t != nil {
		t.run.Store(int64(r))
	}
}

// nowOr0 is the time since the tracer's epoch, or 0 on a nil tracer.
func (t *tracer) nowOr0() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// budget is the wall-clock attribution of a traced pass.
type budget struct {
	Wall    time.Duration            // timed wall, replica time excluded
	Layer   map[string]time.Duration // wall time per layer
	Residue time.Duration            // wall time inside no span
}

// attribute splits the wall interval [from, to) among layers: every
// instant goes to the layer of the deepest open span, split evenly
// between concurrent spans at that depth; instants inside no span are
// the residue. Replica spans are taken out of the wall first; a replica
// span's children (its concurrent workers) lie inside it and are not
// taken out again. The parts add up to Wall exactly.
func attribute(spans []span, from, to time.Duration) budget {
	depth := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < i {
			depth[i] = depth[s.Parent] + 1
		}
	}
	type event struct {
		at    time.Duration
		delta int
		depth int
		layer string
	}
	var evs []event
	var replica time.Duration
	for i, s := range spans {
		st, en := max(s.Start, from), min(s.End, to)
		if en <= st {
			continue
		}
		if s.Replica {
			if s.Parent < 0 {
				replica += en - st
			}
			continue
		}
		evs = append(evs, event{st, +1, depth[i], s.layer()}, event{en, -1, depth[i], s.layer()})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	b := budget{Wall: to - from - replica, Layer: make(map[string]time.Duration)}
	open := make(map[int]map[string]int)
	maxDepth := -1
	prev := from
	for _, ev := range evs {
		if gap := ev.at - prev; gap > 0 && maxDepth >= 0 {
			var n int
			for _, c := range open[maxDepth] {
				n += c
			}
			for l, c := range open[maxDepth] {
				b.Layer[l] += gap * time.Duration(c) / time.Duration(n)
			}
		}
		prev = ev.at
		if open[ev.depth] == nil {
			open[ev.depth] = make(map[string]int)
		}
		open[ev.depth][ev.layer] += ev.delta
		if open[ev.depth][ev.layer] == 0 {
			delete(open[ev.depth], ev.layer)
		}
		maxDepth = -1
		for d, m := range open {
			if len(m) > 0 && d > maxDepth {
				maxDepth = d
			}
		}
	}
	var attributed time.Duration
	for _, d := range b.Layer {
		attributed += d
	}
	b.Residue = b.Wall - attributed
	return b
}

// spanStats sums the durations and counts of the spans named name.
func spanStats(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// countingLocalizer wraps the engine's localizer: it counts fixes that
// fail and, when traced, records a core span around every call. A fix
// fails when it errors with anything but core.ErrNoAPs (nothing heard)
// or core.ErrEmptyRegion (the heard discs do not intersect, as when a
// walker crosses coverage edges inside one window); those two are the
// algorithm's defined "not locatable" answers and are counted apart. Use wrapLocalizer, which keeps the inner
// localizer's optional interfaces so the engine takes the same path.
type countingLocalizer struct {
	inner       core.Localizer
	tr          *tracer
	failed      atomic.Uint64
	unlocatable atomic.Uint64
}

func (l *countingLocalizer) Name() string { return l.inner.Name() }

func (l *countingLocalizer) Locate(k core.Knowledge, gamma []dot11.MAC) (core.Estimate, error) {
	id := l.tr.begin("core.locate", l.tr.curParent())
	est, err := l.inner.Locate(k, gamma)
	l.tr.end(id)
	l.count(err)
	return est, err
}

func (l *countingLocalizer) count(err error) {
	switch {
	case err == nil || errors.Is(err, core.ErrNoAPs):
	case errors.Is(err, core.ErrEmptyRegion):
		l.unlocatable.Add(1)
	default:
		l.failed.Add(1)
	}
}

// trackedCounting forwards core.TrackedLocalizer (M-Loc).
type trackedCounting struct{ *countingLocalizer }

func (l trackedCounting) LocateTracked(k core.Knowledge, gamma []dot11.MAC, rt *core.RegionTracker) (core.Estimate, error) {
	id := l.tr.begin("core.track_locate", l.tr.curParent())
	est, err := l.inner.(core.TrackedLocalizer).LocateTracked(k, gamma, rt)
	l.tr.end(id)
	l.count(err)
	return est, err
}

// trainerCounting forwards core.DiagnosedTrainer (AP-Rad).
type trainerCounting struct{ *countingLocalizer }

func (l trainerCounting) Train(base core.Knowledge, sets map[dot11.MAC][]dot11.MAC) (core.Knowledge, error) {
	k, _, err := l.TrainDiagnosed(base, sets)
	return k, err
}

func (l trainerCounting) TrainDiagnosed(base core.Knowledge, sets map[dot11.MAC][]dot11.MAC) (core.Knowledge, core.TrainDiag, error) {
	id := l.tr.begin("core.train", l.tr.curParent())
	k, d, err := l.inner.(core.DiagnosedTrainer).TrainDiagnosed(base, sets)
	l.tr.end(id)
	return k, d, err
}

// wrapLocalizer returns the counting wrapper around inner and the handle
// to its failure counter. The wrapper implements exactly the optional
// engine interfaces inner implements.
func wrapLocalizer(inner core.Localizer, tr *tracer) (core.Localizer, *countingLocalizer, error) {
	c := &countingLocalizer{inner: inner, tr: tr}
	_, tracked := inner.(core.TrackedLocalizer)
	_, diagnosed := inner.(core.DiagnosedTrainer)
	_, trains := inner.(core.KnowledgeTrainer)
	switch {
	case tracked && !trains:
		return trackedCounting{c}, c, nil
	case diagnosed && !tracked:
		return trainerCounting{c}, c, nil
	case !tracked && !trains:
		return c, c, nil
	}
	return nil, nil, fmt.Errorf("no wrapper keeps the interfaces of %s", inner.Name())
}

// traced finishes a traced pass: it keeps the spans and attributes the
// timed interval [from, to). On an untraced pass it returns a zero
// budget.
func (o *outcome) traced(tr *tracer, from, to time.Duration) budget {
	if tr == nil {
		return budget{}
	}
	o.spans = tr.snapshot()
	b := attribute(o.spans, from, to)
	o.e2e.set("traced_wall_s", b.Wall.Seconds(), "s")
	return b
}

// setBudget records the traced pass's wall-time budget. obsReplica and
// lpReplica size the obs and lp work done inside engine and core spans;
// that much (at most the enclosing layer's whole share) moves from those
// layers' self time to obs and lp, so the parts still add up to the wall.
func setBudget(l *metricSet, b budget, obsReplica, lpReplica time.Duration) {
	obsSelf := min(obsReplica, b.Layer["engine"])
	lpSelf := min(lpReplica, b.Layer["core"])
	l.set("self_s.capwire", b.Layer["capwire"].Seconds(), "s")
	l.set("self_s.engine", (b.Layer["engine"] - obsSelf).Seconds(), "s")
	l.set("self_s.obs", obsSelf.Seconds(), "s")
	l.set("self_s.core", (b.Layer["core"] - lpSelf).Seconds(), "s")
	l.set("self_s.lp", lpSelf.Seconds(), "s")
	l.set("self_s.residue", b.Residue.Seconds(), "s")
}

// medianRound returns the median duration of a pass's rounds, each less
// the replica time spent in it on a traced pass. Throughput is one
// round's work over this median, so a pause that hits one round does not
// move it.
func (o *outcome) medianRound(rounds []time.Duration) time.Duration {
	replica := make([]time.Duration, len(rounds))
	for _, s := range o.spans {
		if s.Replica && s.Parent < 0 && int(s.Run) < len(rounds) {
			replica[s.Run] += s.dur()
		}
	}
	xs := make([]float64, len(rounds))
	for i, d := range rounds {
		xs[i] = (d - replica[i]).Seconds()
	}
	return time.Duration(quantile(xs, 0.5) * 1e9)
}
