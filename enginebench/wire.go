package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/capwire"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sniffer"
)

// wireBatchSec is the capture time one agent batch covers.
const wireBatchSec = 10

// batchesBySimTime cuts time-ordered captures into consecutive batches,
// each covering sec seconds of capture time.
func batchesBySimTime(caps []sniffer.Capture, sec float64) [][]sniffer.Capture {
	var out [][]sniffer.Capture
	for i := 0; i < len(caps); {
		limit := caps[i].TimeSec - mod(caps[i].TimeSec, sec) + sec
		j := i
		for j < len(caps) && caps[j].TimeSec < limit {
			j++
		}
		out = append(out, caps[i:j])
		i = j
	}
	return out
}

func mod(x, m float64) float64 { return x - m*float64(int64(x/m)) }

// frameCaptures converts captures the way the engine's ingest does.
func frameCaptures(caps []sniffer.Capture) []obs.FrameCapture {
	out := make([]obs.FrameCapture, 0, len(caps))
	for _, c := range caps {
		out = append(out, obs.FrameCapture{TimeSec: c.TimeSec, Frame: c.Frame, FromAP: c.FromAP})
	}
	return out
}

// storeDigest is the SHA-256 of the store's canonical Save output.
func storeDigest(s *obs.Store) ([32]byte, error) {
	h := sha256.New()
	if err := s.Save(h); err != nil {
		return [32]byte{}, err
	}
	var d [32]byte
	h.Sum(d[:0])
	return d, nil
}

// runWire replays the slice through one capwire client over one loopback
// TCP connection into a capwire server whose ingest callback is the
// engine's IngestCapturesFrom. The loop is closed: each batch is sent
// and flushed (acked) before the next. Each round replays the whole
// slice into a fresh engine.
func runWire(w *world, rc runConfig) (*outcome, error) {
	tr := rc.tr
	batches := batchesBySimTime(w.Caps, wireBatchSec)
	var cur atomic.Pointer[engine.Engine]
	srv, err := capwire.NewServer(capwire.ServerConfig{
		Ingest: func(agentID string, caps []sniffer.Capture) int {
			id := tr.begin("engine.ingest", tr.curParent())
			n := cur.Load().IngestCapturesFrom("agent:"+agentID, caps)
			tr.end(id)
			return n
		},
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	client, err := capwire.NewClient(capwire.ClientConfig{
		Addr: lis.Addr().String(), AgentID: "bench", Overflow: capwire.OverflowBlock,
	})
	if err != nil {
		srv.Close()
		<-served
		return nil, err
	}
	stop := func() {
		client.Close()
		srv.Close()
		<-served
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	var (
		rttMs, sendMs []float64
		sent          uint64
		rounds        int
		eng           *engine.Engine
		replica       *obs.Store
		wireBytes     int
		roundDur      []time.Duration
	)
	start, from := time.Now(), tr.nowOr0()
	for ; rounds == 0 || time.Since(start).Seconds() < rc.seconds; rounds++ {
		r0 := time.Now()
		tr.setRun(rounds)
		eng, err = engine.New(engine.Config{Know: w.Know, WindowSec: windowSec})
		if err != nil {
			stop()
			return nil, err
		}
		cur.Store(eng)
		replica = replicaStore(tr)
		for _, b := range batches {
			t0 := time.Now()
			id := tr.enter("capwire.batch")
			if err := client.Send(ctx, b); err != nil {
				stop()
				return nil, fmt.Errorf("send: %w", err)
			}
			t1 := time.Now()
			if err := client.Flush(ctx); err != nil {
				stop()
				return nil, fmt.Errorf("flush: %w", err)
			}
			tr.leave(id)
			t2 := time.Now()
			rttMs = append(rttMs, t2.Sub(t0).Seconds()*1e3)
			sendMs = append(sendMs, t1.Sub(t0).Seconds()*1e3)
			sent += uint64(len(b))
			if tr != nil {
				wireBytes += wireReplicas(tr, replica, b)
			}
		}
		roundDur = append(roundDur, time.Since(r0))
	}
	to := tr.nowOr0()
	cst := client.Stats()
	tot := srv.Totals()
	stop()

	o := &outcome{e2e: newMetricSet(), layers: newMetricSet(), keep: eng}
	o.attempted = sent
	o.failed = sent - min(sent, tot.FramesIngested) + tot.FramesDeduped + tot.FramesQuarantined
	b := o.traced(tr, from, to)
	o.throughput = float64(len(w.Caps)) / o.medianRound(roundDur).Seconds()
	o.e2e.set("throughput", o.throughput, "1/s")
	o.e2e.set("ingest_fps", o.throughput, "1/s")
	o.e2e.latency("op_ms", rttMs, "ms")
	o.e2e.latency("aux_ms", sendMs, "ms")
	o.e2e.set("rounds", float64(rounds), "count")

	got, err := storeDigest(eng.Store())
	if err != nil {
		return nil, err
	}
	o.digest = got
	o.checks = checkWire(w.Caps, uint64(len(w.Caps))*uint64(rounds), tot, got)

	if tr != nil {
		l := o.layers
		ingest, _ := spanStats(o.spans, "engine.ingest")
		obsIngest, _ := spanStats(o.spans, "obs.ingest")
		enc, nEnc := spanStats(o.spans, "capwire.encode")
		dec, nDec := spanStats(o.spans, "capwire.decode")
		l.set("capwire.wire_s", b.Layer["capwire"].Seconds(), "s")
		l.set("capwire.send_s", sum(sendMs)/1e3, "s")
		l.set("capwire.encode_us_per_batch", perCallMicros(enc, nEnc), "us")
		l.set("capwire.decode_us_per_batch", perCallMicros(dec, nDec), "us")
		l.set("capwire.bytes_per_frame", float64(wireBytes)/float64(sent), "B")
		l.set("capwire.replayed_batches", float64(cst.ReplayedBatches), "count")
		l.set("capwire.deduped_batches", float64(tot.BatchesDeduped), "count")
		l.set("engine.ingest_s", ingest.Seconds(), "s")
		l.set("engine.ingest_fps_busy", float64(tot.FramesIngested)/ingest.Seconds(), "1/s")
		l.set("obs.ingest_s", obsIngest.Seconds(), "s")
		l.set("obs.records", float64(eng.Stats().ObsRecords), "count")
		setBudget(l, b, obsIngest, 0)
	}
	return o, nil
}

// wireReplicas repeats, outside the timed path, the work the traced
// batch did inside other spans: the agent's encode, the server's decode,
// and the observation store's ingest. It returns the batch's wire size.
func wireReplicas(tr *tracer, replica *obs.Store, b []sniffer.Capture) int {
	id := tr.beginReplica("capwire.encode")
	batch, err := capwire.BatchFromCaptures(1, b)
	var buf []byte
	if err == nil {
		buf, err = capwire.EncodeMessage(batch)
	}
	tr.end(id)
	if err != nil {
		return 0
	}
	id = tr.beginReplica("capwire.decode")
	if msg, _, err := capwire.DecodeMessage(buf); err == nil {
		if mb, ok := msg.(*capwire.Batch); ok {
			_ = mb.ToCaptures()
		}
	}
	tr.end(id)
	id = tr.beginReplica("bench.prep")
	fc := frameCaptures(b)
	tr.end(id)
	id = tr.beginReplica("obs.ingest")
	replica.IngestFrames(fc)
	tr.end(id)
	return len(buf)
}

// checkWire verifies the wire workload's books and its store: every frame
// sent was ingested exactly once, nothing was deduped or quarantined, and
// the last round's store is byte-identical (by SHA-256 of its Save
// output) to an in-process IngestCaptures of the same captures.
func checkWire(caps []sniffer.Capture, sent uint64, tot capwire.Totals, got [32]byte) error {
	var errs []error
	if !tot.AccountingOk {
		errs = append(errs, errors.New("wire: server accounting does not balance"))
	}
	if tot.FramesIngested != sent {
		errs = append(errs, fmt.Errorf("wire: %d frames sent, %d ingested", sent, tot.FramesIngested))
	}
	if tot.FramesDeduped != 0 || tot.BatchesDeduped != 0 || tot.FramesQuarantined != 0 {
		errs = append(errs, fmt.Errorf("wire: %d frames deduped, %d quarantined", tot.FramesDeduped, tot.FramesQuarantined))
	}
	ref, err := engine.New(engine.Config{WindowSec: windowSec})
	if err != nil {
		return err
	}
	ref.IngestCaptures(caps)
	want, err := storeDigest(ref.Store())
	if err != nil {
		return err
	}
	if got != want {
		errs = append(errs, errors.New("wire: store differs from in-process ingest of the same captures"))
	}
	return errors.Join(errs...)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func perCallMicros(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Microseconds()) / float64(n)
}
