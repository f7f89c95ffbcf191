// Command enginebench measures the Marauder's-map engine, not the rig
// that feeds it. Set-up builds a deterministic world from the seed,
// generates one office day and captures only the slice a workload
// replays; the timed part then replays those captures closed-loop
// through the public API of capwire, engine, obs and core, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is a traced run that reports per-layer numbers instead (see
// README.md).
//
// Usage:
//
//	enginebench -workload wire_ingest|live_map|aprad_retrain -seed N -seconds S -trace 0|1
//
// A traced run also writes its spans, one JSON object a line, to
// .bench_build/spans-<workload>-<seed>.jsonl under the working directory.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/sniffer"
)

// setupRepeats is how many times a run builds its input; setup_s is the
// median, so one slow build does not move it.
const setupRepeats = 3

// e2eNames are the end-to-end metrics every untraced run prints, in the
// order BENCHMARK.json lists them.
var e2eNames = []string{"setup_s", "throughput", "op_ms.p50", "aux_ms.p50", "heap_mb"}

// layerNames are the per-layer metrics every traced run prints, in the
// order BENCHMARK.json lists them. A layer a workload does not exercise
// reports 0.
var layerNames = []string{
	"capwire.wire_s", "capwire.send_s", "capwire.encode_us_per_batch",
	"capwire.decode_us_per_batch", "capwire.bytes_per_frame",
	"capwire.replayed_batches", "capwire.deduped_batches",
	"engine.ingest_s", "engine.ingest_fps_busy", "engine.snapshot_s",
	"engine.track_s", "engine.refresh_s", "engine.cache_hit_ratio", "engine.fixes",
	"obs.ingest_s", "obs.window_us", "obs.gamma_k.mean", "obs.records", "obs.device_apsets_s",
	"core.locate_us", "core.locate_calls", "core.track_locate_us", "core.train_s",
	"lp.constraints", "lp.iterations", "lp.solve_s",
	"self_s.capwire", "self_s.engine", "self_s.obs", "self_s.core", "self_s.lp",
	"self_s.residue", "trace.overhead_pct",
}

// layerUnits gives each per-layer metric its unit.
var layerUnits = map[string]string{
	"capwire.wire_s": "s", "capwire.send_s": "s", "capwire.encode_us_per_batch": "us",
	"capwire.decode_us_per_batch": "us", "capwire.bytes_per_frame": "B",
	"capwire.replayed_batches": "count", "capwire.deduped_batches": "count",
	"engine.ingest_s": "s", "engine.ingest_fps_busy": "1/s", "engine.snapshot_s": "s",
	"engine.track_s": "s", "engine.refresh_s": "s", "engine.cache_hit_ratio": "ratio",
	"engine.fixes": "count",
	"obs.ingest_s": "s", "obs.window_us": "us", "obs.gamma_k.mean": "count",
	"obs.records": "count", "obs.device_apsets_s": "s",
	"core.locate_us": "us", "core.locate_calls": "count", "core.track_locate_us": "us",
	"core.train_s":   "s",
	"lp.constraints": "count", "lp.iterations": "count", "lp.solve_s": "s",
	"self_s.capwire": "s", "self_s.engine": "s", "self_s.obs": "s", "self_s.core": "s",
	"self_s.lp": "s", "self_s.residue": "s", "trace.overhead_pct": "%",
}

// runConfig is what a workload's timed pass needs besides its input.
type runConfig struct {
	seconds float64
	tr      *tracer // nil on an untraced pass
}

// outcome is one timed pass of a workload.
type outcome struct {
	attempted, failed uint64
	// e2e holds the end-to-end metrics plus the workload's named figures.
	e2e *metricSet
	// layers holds the per-layer metrics a traced pass measured.
	layers *metricSet
	// digest fingerprints the first round's outputs; a traced and an
	// untraced pass over the same input must agree on it.
	digest [32]byte
	// checks is the first failed output check, or nil.
	checks error
	// keep is the engine state still live at the end of the run; the
	// heap measurement keeps it reachable and drops everything else.
	keep any
	// throughput is the pass's work rate, for the tracing overhead.
	throughput float64
	spans      []span
}

// workload is one benchmark workload.
type workload struct {
	sc  scenario
	run func(w *world, rc runConfig) (*outcome, error)
}

var workloads = map[string]workload{
	"wire_ingest":   {sc: sliceScenario(300, 300, 10, 40), run: runWire},
	"live_map":      {sc: sliceScenario(300, 300, 10, 40), run: runLiveMap},
	"aprad_retrain": {sc: trainingScenario(80, 300, 10, 180), run: runAPRad},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("enginebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: wire_ingest, live_map or aprad_retrain")
	seed := fs.Int64("seed", 1, "world and traffic seed")
	seconds := fs.Float64("seconds", 10, "measured seconds (whole replay rounds; at least one)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}

	w, setupTimes, err := setUp(wl.sc, *seed)
	if err != nil {
		return err
	}
	var res *outcome
	var checks error
	if *traceFlag == 0 {
		res, err = wl.run(w, runConfig{seconds: *seconds})
		if err != nil {
			return err
		}
		checks = res.checks
	} else {
		// Untraced then traced over the same input: the difference in
		// throughput is the tracing overhead, and both must produce the
		// same outputs.
		plain, err := wl.run(w, runConfig{seconds: *seconds / 2})
		if err != nil {
			return err
		}
		res, err = wl.run(w, runConfig{seconds: *seconds / 2, tr: newTracer()})
		if err != nil {
			return err
		}
		checks = errors.Join(plain.checks, res.checks)
		if plain.digest != res.digest {
			checks = errors.Join(checks, errors.New("traced outputs differ from untraced outputs"))
		}
		res.layers.set("trace.overhead_pct", (plain.throughput/res.throughput-1)*100, "%")
		path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *name, *seed)
		if err := writeSpans(path, res.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(res.spans), path)
	}
	res.e2e.set("setup_s", quantile(setupTimes, 0.5), "s")
	res.e2e.set("captures", float64(len(w.Caps)), "count")
	if *traceFlag == 0 {
		// Nothing refers to the generated input any more, so the live heap
		// is the engine's own retained memory.
		res.e2e.set("heap_mb", heapMB(res.keep), "MB")
	}
	if err := res.e2e.validate(); err != nil {
		return err
	}
	for _, n := range res.e2e.names {
		v := res.e2e.vals[n]
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", n, v.Value, v.Unit)
	}
	var metrics map[string]metric
	if *traceFlag == 0 {
		metrics, err = res.e2e.pick(e2eNames)
	} else {
		for _, n := range layerNames {
			if _, ok := res.layers.vals[n]; !ok {
				res.layers.set(n, 0, layerUnits[n])
			}
		}
		if err := res.layers.validate(); err != nil {
			return err
		}
		for _, n := range layerNames {
			v := res.layers.vals[n]
			fmt.Fprintf(stdout, "layer  %-28s %14.6g %s\n", n, v.Value, v.Unit)
		}
		metrics, err = res.layers.pick(layerNames)
	}
	if err != nil {
		return err
	}
	if checks != nil {
		fmt.Fprintln(stdout, "check failed:", checks)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{checks == nil, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// setUp builds the workload's input setupRepeats times, returning the
// last build and each build's wall time. Every build must yield the same
// captures.
func setUp(sc scenario, seed int64) (*world, []float64, error) {
	var (
		w     *world
		times []float64
		first [32]byte
	)
	for i := 0; i < setupRepeats; i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		nw, err := buildWorld(sc, seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		d := captureDigest(nw.Caps)
		if i == 0 {
			first = d
		} else if d != first {
			return nil, nil, errors.New("set-up is not deterministic: captures differ between builds")
		}
		w = nw
	}
	if len(w.Caps) == 0 {
		return nil, nil, errors.New("set-up captured nothing")
	}
	return w, times, nil
}

// captureDigest fingerprints a capture slice's timing, radio and frame
// addressing.
func captureDigest(caps []sniffer.Capture) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, c := range caps {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.TimeSec))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.SNRDB))
		h.Write(b[:])
		if c.Frame != nil {
			h.Write(c.Frame.Addr1[:])
			h.Write(c.Frame.Addr2[:])
			h.Write(c.Frame.Addr3[:])
		}
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// heapMB forces a collection with only keep (and the runtime) reachable
// and returns the live heap in MiB.
func heapMB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}
