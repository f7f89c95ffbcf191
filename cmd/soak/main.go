// Command soak is the sustained-load rig: it synthesizes a campus/city
// world from internal/sim (hundreds to millions of devices with diurnal
// office traffic), replays it at Nx real time against a live in-process
// engine — optionally under the deterministic chaos fault plan — and
// records the whole run through the FTDC flight recorder
// (internal/telemetry/ftdc). At the end it folds the run into a versioned
// BENCH_<pr>.json summary: throughput, p50/p99 fix latency, map-frame
// latency, peak RSS/heap, max GC pause, fault and quarantine accounting,
// and a pointer to the .ftdc file for post-mortem decoding with ftdcdump.
//
// Usage:
//
//	soak [-devices 200] [-aps 300] [-seed 1] [-algo mloc|centroid|closest]
//	     [-duration 30s] [-speedup 600] [-sim-start 8h] [-sniffers 2]
//	     [-chaos] [-chaos-seed 1] [-workers 0] [-shards 0]
//	     [-ftdc-dir DIR] [-ftdc-interval 1s]
//	     [-prof] [-prof-dir DIR] [-stage-sample-every 1]
//	     [-mutex-profile-fraction 0] [-block-profile-rate 0]
//	     [-out BENCH_10.json] [-pr 10] [-run-name NAME] [-merge-micro FILE]
//	     [-merge-extra NAME=FILE] [-metrics-addr :9642]
//	     [-agents 0] [-agents-wire-chaos] [-agents-wire-seed 1] [-agents-out FILE]
//
// Each invocation is one run. -out merges the run into the summary file
// under runs.<run-name> (default chaos_off/chaos_on), so a chaos-off and
// a chaos-on invocation build one BENCH_<pr>.json between them;
// -merge-micro additionally embeds a microbenchmark JSON (as
// scripts/bench_store.sh emits) under "micro", and -merge-extra embeds
// any benchmark JSON under a caller-chosen key (scripts/soak_smoke.sh
// uses agents=FILE) — one idiom produces every BENCH_<pr>.json. With
// -duration 0 the command only merges.
//
// The rig self-profiles by default (-prof): one continuous-profiler
// capture cycle runs concurrently with the load, and the summary gains a
// "profile" section — sample count, the decoded top-N hot functions, and
// the per-stage wall-clock shares from the marauder_stage_seconds
// histograms (the soak times every fix: -stage-sample-every defaults to
// 1 here, unlike the serving commands' 16).
//
// -agents N routes every capture batch through N loopback capwire
// agents (real TCP, real framing, cursor acks) instead of calling the
// engine directly, forcing one mid-run disconnect so the summary's
// resume count proves the cursor path; -agents-wire-chaos additionally
// runs the connections through the deterministic wire fault plan. The
// fleet's throughput, dedup/resume accounting and p99 batch latency
// land under "agents" in the run summary, and -agents-out FILE writes
// the same section standalone for a later -merge-extra agents=FILE.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/flagcheck"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/ftdc"
	"repro/internal/telemetry/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("soak failed", "component", "soak", "err", err)
		os.Exit(1)
	}
}

// soakConfig is the parsed flag set.
type soakConfig struct {
	Devices     int
	APs         int
	Seed        int64
	Algo        string
	Duration    time.Duration
	Speedup     float64
	SimStart    time.Duration
	Sniffers    int
	Chaos       bool
	ChaosSeed   int64
	Workers     int
	Shards      int
	FTDCDir     string
	FTDCEvery   time.Duration
	Prof        bool
	ProfDir     string
	StageEvery  int
	MutexFrac   int
	BlockRate   int
	Out         string
	PR          int
	RunName     string
	MergeMicro  string
	MergeExtra  []string // NAME=FILE pairs, each embedded under key NAME
	Tick        time.Duration
	FrameEvery  time.Duration
	FixSample   int
	MetricsAddr string

	// Agents > 0 routes capture batches through that many loopback
	// capwire agents; AgentsOut writes the agents summary standalone.
	Agents          int
	AgentsWireChaos bool
	AgentsWireSeed  int64
	AgentsOut       string
}

// latencyStats is one latency distribution in the summary, in
// milliseconds. Quantiles come from the run's delta of the cumulative
// telemetry histogram (telemetry.QuantileFromCumulative); Max is the
// highest non-empty bucket bound — the tightest statement fixed buckets
// support.
type latencyStats struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

// ftdcInfo points the summary at the run's flight-recorder artifact.
type ftdcInfo struct {
	Path    string `json:"path"`
	Chunks  uint64 `json:"chunks"`
	Samples uint64 `json:"samples"`
	Bytes   uint64 `json:"bytes"`
}

// runSummary is one soak run as recorded in BENCH_<pr>.json.
type runSummary struct {
	Devices          int     `json:"devices"`
	APs              int     `json:"aps"`
	Algo             string  `json:"algo"`
	Seed             int64   `json:"seed"`
	Chaos            bool    `json:"chaos"`
	Speedup          float64 `json:"speedup"`
	WallSeconds      float64 `json:"wallSeconds"`
	SimSeconds       float64 `json:"simSeconds"`
	FramesReplayed   uint64  `json:"framesReplayed"`
	FramesDelivered  uint64  `json:"framesDelivered"`
	FramesIngested   uint64  `json:"framesIngested"`
	FramesPerWallSec float64 `json:"framesPerWallSec"`
	Quarantined      uint64  `json:"quarantined"`

	Fix      latencyStats `json:"fix"`
	MapFrame latencyStats `json:"mapFrame"`

	PeakRSSBytes   float64 `json:"peakRssBytes"`
	PeakHeapBytes  float64 `json:"peakHeapBytes"`
	MaxGoroutines  float64 `json:"maxGoroutines"`
	MaxGCPauseMs   float64 `json:"maxGcPauseMs"`
	GCCyclesPerMin float64 `json:"gcCyclesPerMin"`

	FTDC    ftdcInfo         `json:"ftdc"`
	Faults  *faults.Counters `json:"faults,omitempty"`
	Profile *profileSummary  `json:"profile,omitempty"`
	Agents  *agentsSummary   `json:"agents,omitempty"`
}

// profileSummary is the run's self-profile: the decoded hot-function
// table from the concurrent CPU capture plus the per-stage cost shares
// from the marauder_stage_seconds histograms' sum deltas.
type profileSummary struct {
	Artifacts    string             `json:"artifacts"`
	CPUPath      string             `json:"cpuPath,omitempty"`
	Samples      int                `json:"samples"`
	TotalNanos   int64              `json:"totalNanos,omitempty"`
	TopFunctions []prof.HotFunc     `json:"topFunctions,omitempty"`
	StageSeconds map[string]float64 `json:"stageSeconds,omitempty"`
	StageShares  map[string]float64 `json:"stageShares,omitempty"`
}

func parseFlags(args []string) (soakConfig, error) {
	var c soakConfig
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.IntVar(&c.Devices, "devices", 200, "simulated device population")
	fs.IntVar(&c.APs, "aps", 300, "deployed APs")
	fs.Int64Var(&c.Seed, "seed", 1, "world seed (world, population and traffic are deterministic per seed)")
	fs.StringVar(&c.Algo, "algo", "mloc", "localization algorithm: mloc, centroid or closest")
	fs.DurationVar(&c.Duration, "duration", 30*time.Second, "wall-clock soak duration (0 = no run, merge only)")
	fs.Float64Var(&c.Speedup, "speedup", 600, "simulated seconds per wall second")
	fs.DurationVar(&c.SimStart, "sim-start", 8*time.Hour, "simulated clock at soak start (office traffic is diurnal; 8h = 08:00)")
	fs.IntVar(&c.Sniffers, "sniffers", 2, "sniffer fleet grid edge (k x k sites across the area)")
	fs.BoolVar(&c.Chaos, "chaos", false, "inject the aggressive fault plan during the soak")
	fs.Int64Var(&c.ChaosSeed, "chaos-seed", 1, "fault plan seed")
	fs.IntVar(&c.Workers, "workers", 0, "engine snapshot worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&c.Shards, "shards", 0, "observation store shard count (0 = GOMAXPROCS-rounded)")
	fs.StringVar(&c.FTDCDir, "ftdc-dir", "", "flight recorder output directory (empty = a fresh temp dir, path printed)")
	fs.DurationVar(&c.FTDCEvery, "ftdc-interval", time.Second, "flight recorder sampling interval")
	fs.BoolVar(&c.Prof, "prof", true, "self-profile the run and record a \"profile\" section in the summary")
	fs.StringVar(&c.ProfDir, "prof-dir", "", "profiler artifact directory (empty = a fresh temp dir)")
	fs.IntVar(&c.StageEvery, "stage-sample-every", 1, "time per-stage histograms every Nth fix (the soak times every fix by default)")
	fs.IntVar(&c.MutexFrac, "mutex-profile-fraction", 0, "sample 1/n of mutex contention events into the mutex profile (0 = off)")
	fs.IntVar(&c.BlockRate, "block-profile-rate", 0, "record goroutine blocking lasting >= n ns into the block profile (0 = off)")
	fs.StringVar(&c.Out, "out", "", "BENCH summary file to merge this run into (empty = print summary only)")
	fs.IntVar(&c.PR, "pr", 9, "PR number recorded in the summary")
	fs.StringVar(&c.RunName, "run-name", "", "summary key for this run (default chaos_off/chaos_on)")
	fs.StringVar(&c.MergeMicro, "merge-micro", "", "microbenchmark JSON (scripts/bench_store.sh output) to embed under \"micro\"")
	fs.Func("merge-extra", "NAME=FILE: embed FILE's JSON under top-level key NAME (repeatable)", func(s string) error {
		c.MergeExtra = append(c.MergeExtra, s)
		return nil
	})
	fs.DurationVar(&c.Tick, "tick", 100*time.Millisecond, "replay step")
	fs.DurationVar(&c.FrameEvery, "frame-every", 500*time.Millisecond, "full map-frame cadence")
	fs.IntVar(&c.FixSample, "fix-sample", 16, "devices individually fixed per frame tick for the fix-latency histogram")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve /metrics and /debug/vars on this address while the soak runs")
	fs.IntVar(&c.Agents, "agents", 0, "route capture batches through N loopback capwire agents (0 = ingest directly)")
	fs.BoolVar(&c.AgentsWireChaos, "agents-wire-chaos", false, "run the agent connections through the deterministic wire fault plan")
	fs.Int64Var(&c.AgentsWireSeed, "agents-wire-seed", 1, "wire fault plan seed")
	fs.StringVar(&c.AgentsOut, "agents-out", "", "also write the agents summary JSON standalone to this file (for -merge-extra agents=FILE)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if err := flagcheck.New(fs).
		Requires("agents-wire-chaos", "agents").
		Requires("agents-wire-seed", "agents-wire-chaos").
		Requires("agents-out", "agents").
		Requires("chaos-seed", "chaos").Err(); err != nil {
		return c, err
	}
	if c.Agents < 0 {
		return c, errors.New("-agents must be >= 0")
	}
	if c.RunName == "" {
		if c.Chaos {
			c.RunName = "chaos_on"
		} else {
			c.RunName = "chaos_off"
		}
	}
	if c.Duration > 0 {
		if c.Devices <= 0 || c.APs <= 0 {
			return c, errors.New("need -devices > 0 and -aps > 0")
		}
		if c.Speedup <= 0 || c.Tick <= 0 || c.FrameEvery <= 0 {
			return c, errors.New("need -speedup, -tick and -frame-every > 0")
		}
		if c.Sniffers <= 0 {
			c.Sniffers = 1
		}
	}
	return c, nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if _, err := telemetry.SetupLogging(os.Stderr, "info", "text"); err != nil {
		return err
	}

	if cfg.MetricsAddr != "" {
		msrv := &http.Server{Addr: cfg.MetricsAddr, Handler: telemetry.Mux(telemetry.Default(), false)}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("metrics server failed", "component", "soak", "addr", cfg.MetricsAddr, "err", err)
			}
		}()
		defer msrv.Close()
		slog.Info("metrics listening", "component", "soak", "addr", cfg.MetricsAddr)
	}

	var summary *runSummary
	if cfg.Duration > 0 {
		summary, err = soak(cfg)
		if err != nil {
			return err
		}
		pretty, _ := json.MarshalIndent(summary, "", "  ")
		fmt.Printf("%s\n", pretty)
	}
	if cfg.Out == "" {
		return nil
	}
	return mergeSummary(cfg, summary)
}

// area is the deployment square, sized so the default 300-AP density
// matches the paper's campus and grown with the population so a million
// devices is a city, not a mosh pit.
func area(devices int) (min, max geom.Point) {
	half := 350.0
	if devices > 2000 {
		half = 350 * math.Sqrt(float64(devices)/2000)
	}
	return geom.Pt(-half, -half), geom.Pt(half, half)
}

// soakWorld builds the deterministic world: uniformly deployed APs on the
// campus channel distribution, a device population with the realistic
// profile mix, and every 8th device walking a random-waypoint route
// instead of sitting at home (churning Γ, the cache and the spatial
// index the way a real crowd does).
func soakWorld(cfg soakConfig) (*sim.World, core.Knowledge, error) {
	w := sim.NewWorld(cfg.Seed)
	min, max := area(cfg.Devices)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N: cfg.APs, Min: min, Max: max, RangeMin: 70, RangeMax: 130,
	}, w.RNG())
	if err != nil {
		return nil, core.Knowledge{}, err
	}
	w.APs = aps
	devs := sim.DefaultPopulation(cfg.Devices, min, max, w.RNG())
	simSpan := cfg.Duration.Seconds()*cfg.Speedup + cfg.SimStart.Seconds()
	for i, d := range devs {
		if i%8 == 0 {
			d.Mobility = sim.NewRandomWaypoint(min, max, 1.2, simSpan+3600, cfg.Seed+int64(i))
		}
		w.AddDevice(d)
	}
	infos := make([]core.APInfo, 0, len(aps))
	for _, ap := range aps {
		infos = append(infos, core.APInfo{BSSID: ap.MAC, Pos: ap.Pos, MaxRange: ap.MaxRange})
	}
	return w, core.NewKnowledge(infos), nil
}

// newLocalizer maps -algo to an untrained localizer; the soak measures
// the serving path, so the trained algorithms (which need a wardrive or
// LP training phase) are out of scope here.
func newLocalizer(algo string) (core.Localizer, error) {
	switch algo {
	case "mloc", "":
		return core.MLocalizer{}, nil
	case "centroid":
		return core.CentroidLocalizer{}, nil
	case "closest":
		return core.ClosestAPLocalizer{}, nil
	default:
		return nil, fmt.Errorf("unknown soak algorithm %q (want mloc, centroid or closest)", algo)
	}
}

// fleetFor places a k x k sniffer grid across the area so city-scale
// traffic is actually captured — one roof antenna cannot hear a whole
// city, which is exactly the fleet's reason to exist.
func fleetFor(k int, min, max geom.Point, plan *faults.Plan) *sniffer.Fleet {
	configs := make([]sniffer.Config, 0, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			configs = append(configs, sniffer.Config{
				Pos: geom.Pt(
					min.X+(float64(i)+0.5)*(max.X-min.X)/float64(k),
					min.Y+(float64(j)+0.5)*(max.Y-min.Y)/float64(k),
				),
				Chain:  rf.ChainLNA(),
				Plan:   dot11.DefaultPlan(),
				Faults: plan,
			})
		}
	}
	return sniffer.NewFleet(configs...)
}

// soakMetrics are the rig's own series, registered on the process
// registry so the flight recorder carries them next to the engine's.
type soakMetrics struct {
	replayed  *telemetry.Counter
	delivered *telemetry.Counter
	ingested  *telemetry.Counter
	simTime   *telemetry.Gauge
	located   *telemetry.Gauge
	fixSec    *telemetry.Histogram
	frameSec  *telemetry.Histogram
}

func newSoakMetrics(reg *telemetry.Registry) *soakMetrics {
	return &soakMetrics{
		replayed: reg.Counter("soak_frames_replayed_total",
			"TX events offered to the sniffer fleet.", nil),
		delivered: reg.Counter("soak_frames_delivered_total",
			"Captures delivered to the engine (post fault injection).", nil),
		ingested: reg.Counter("soak_frames_ingested_total",
			"Captures the engine accepted into the observation store.", nil),
		simTime: reg.Gauge("soak_sim_time_seconds",
			"Simulated clock of the replay.", nil),
		located: reg.Gauge("soak_frame_devices",
			"Devices located in the latest full map frame.", nil),
		fixSec: reg.Histogram("soak_fix_seconds",
			"Single-device Fix latency during the soak.", telemetry.LatencyBuckets(), nil),
		frameSec: reg.Histogram("soak_frame_seconds",
			"Full map-frame (Snapshot) latency during the soak.", telemetry.LatencyBuckets(), nil),
	}
}

// histDelta extracts the run's latency stats for one histogram series as
// the delta between the start and end registry snapshots, so a second run
// in the same process (tests) does not inherit the first run's samples.
func histDelta(start, end []telemetry.Sample, series string) latencyStats {
	var s0, s1 *telemetry.Sample
	for i := range start {
		if start[i].Series() == series {
			s0 = &start[i]
		}
	}
	for i := range end {
		if end[i].Series() == series {
			s1 = &end[i]
		}
	}
	if s1 == nil {
		return latencyStats{}
	}
	cum := s1.Cumulative
	count := s1.Count
	if s0 != nil {
		if d := telemetry.DeltaCumulative(s1.Cumulative, s0.Cumulative); d != nil {
			cum = d
			count -= s0.Count
		}
	}
	if count == 0 {
		return latencyStats{}
	}
	ls := latencyStats{Count: count}
	if p := telemetry.QuantileFromCumulative(s1.Bounds, cum, 0.50); !math.IsNaN(p) {
		ls.P50Ms = round4(p * 1e3)
	}
	if p := telemetry.QuantileFromCumulative(s1.Bounds, cum, 0.99); !math.IsNaN(p) {
		ls.P99Ms = round4(p * 1e3)
	}
	if bound, _, ok := telemetry.MaxNonEmptyBound(s1.Bounds, cum); ok {
		ls.MaxMs = round4(bound * 1e3)
	}
	return ls
}

// stageSumDeltas extracts the per-stage wall-clock seconds spent during
// the run: the sum delta of every marauder_stage_seconds{stage=...}
// histogram between the start and end registry snapshots.
func stageSumDeltas(start, end []telemetry.Sample) map[string]float64 {
	base := make(map[string]float64)
	for _, s := range start {
		if s.Name == "marauder_stage_seconds" {
			base[s.Labels] = s.Sum
		}
	}
	out := make(map[string]float64)
	for _, s := range end {
		if s.Name != "marauder_stage_seconds" {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(s.Labels, `stage="`), `"`)
		if d := s.Sum - base[s.Labels]; d > 0 {
			out[stage] = round4(d)
		}
	}
	return out
}

// maxColumn scans decoded FTDC chunks for the highest value of a column.
func maxColumn(chunks []*ftdc.Chunk, name string) float64 {
	best := math.Inf(-1)
	found := false
	for _, c := range chunks {
		for j, col := range c.Columns {
			if col.Name != name {
				continue
			}
			for i := range c.Samples {
				if v := c.Float(i, j); v > best {
					best, found = v, true
				}
			}
		}
	}
	if !found {
		return 0
	}
	return best
}

// soak runs one sustained-load replay and returns its summary.
func soak(cfg soakConfig) (*runSummary, error) {
	w, know, err := soakWorld(cfg)
	if err != nil {
		return nil, err
	}
	loc, err := newLocalizer(cfg.Algo)
	if err != nil {
		return nil, err
	}
	var plan *faults.Plan
	if cfg.Chaos {
		plan = faults.Aggressive(cfg.ChaosSeed)
	}
	eng, err := engine.New(engine.Config{
		Know:             know,
		Store:            obs.NewStoreShards(cfg.Shards),
		Localizer:        loc,
		WindowSec:        60,
		Workers:          cfg.Workers,
		StageSampleEvery: cfg.StageEvery,
	})
	if err != nil {
		return nil, err
	}
	amin, amax := area(cfg.Devices)
	fleet := fleetFor(cfg.Sniffers, amin, amax, plan)
	var injector *sniffer.FaultInjector
	if plan.Enabled() {
		injector = &sniffer.FaultInjector{Plan: plan}
	}

	reg := telemetry.Default()
	m := newSoakMetrics(reg)

	// With -agents the batches take the wire: engine-accepted counts come
	// back through the server's ingest callback instead of the direct
	// return value.
	var agents *agentPlane
	if cfg.Agents > 0 {
		agents, err = startAgentPlane(cfg, eng, func(n int) { m.ingested.Add(uint64(n)) })
		if err != nil {
			return nil, err
		}
		defer agents.close()
	}
	ingestBatch := func(batch []sniffer.Capture) (int, error) {
		if agents == nil {
			return eng.IngestCaptures(batch), nil
		}
		sendCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return 0, agents.deliver(sendCtx, batch)
	}
	rt := telemetry.NewRuntimeSampler(reg)

	ftdcDir := cfg.FTDCDir
	if ftdcDir == "" {
		if ftdcDir, err = os.MkdirTemp("", "soak-ftdc-"); err != nil {
			return nil, err
		}
	}
	rec, err := ftdc.New(ftdc.Config{
		Dir:          ftdcDir,
		Interval:     cfg.FTDCEvery,
		Registry:     reg,
		Runtime:      rt,
		FilePrefix:   "soak",
		ChunkSamples: 0,
	})
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // explicit cancel below; this covers the error returns
	recDone := make(chan struct{})
	go func() { rec.Run(ctx); close(recDone) }()

	// Self-profile: one capture cycle concurrent with the load, CPU
	// capture sized to sit inside the soak window.
	var profiler *prof.Profiler
	profDone := make(chan struct{})
	profDir := cfg.ProfDir
	if cfg.Prof {
		telemetry.SetProfileRates(cfg.MutexFrac, cfg.BlockRate)
		if profDir == "" {
			if profDir, err = os.MkdirTemp("", "soak-prof-"); err != nil {
				return nil, err
			}
		}
		cpuDur := cfg.Duration / 2
		if cpuDur > 10*time.Second {
			cpuDur = 10 * time.Second
		}
		profiler, err = prof.New(prof.Config{
			Dir:         profDir,
			Interval:    cfg.Duration + time.Hour, // one cycle per run
			CPUDuration: cpuDur,
			FilePrefix:  "soak",
		})
		if err != nil {
			return nil, err
		}
		started := make(chan struct{})
		go func() {
			if cerr := profiler.CycleSignaled(ctx, started); cerr != nil {
				slog.Warn("self-profile cycle failed", "component", "soak", "err", cerr)
			}
			close(profDone)
		}()
		<-started
	} else {
		close(profDone)
	}

	slog.Info("soak starting", "component", "soak",
		"devices", cfg.Devices, "aps", cfg.APs, "algo", cfg.Algo,
		"chaos", cfg.Chaos, "speedup", cfg.Speedup,
		"duration", cfg.Duration, "ftdc", rec.Path())

	var (
		replayed, delivered, ingested uint64
		fixes                         uint64
		startSnap                     = reg.Snapshot()
		wallStart                     = time.Now()
		simStart                      = cfg.SimStart.Seconds()
		simNow                        = simStart
		day                           = -1
		dayEvents                     []sim.TxEvent
		dayIdx                        int
		fixCursor                     int
		lastFrame                     = wallStart
	)
	// Weekday pattern matching the paper's trace: day 0 is a Friday.
	weekdayOf := func(d int) bool { wd := (5 + d) % 7; return wd >= 1 && wd <= 5 }

	ticker := time.NewTicker(cfg.Tick)
	defer ticker.Stop()
	deadline := wallStart.Add(cfg.Duration)
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		simNext := simStart + now.Sub(wallStart).Seconds()*cfg.Speedup
		// Cross day boundaries one at a time so every day's traffic is
		// generated exactly once, in order, from the world's single RNG.
		for {
			d := int(simNow / 86400)
			if d != day {
				day = d
				dayEvents = sim.OfficeTraceDay(w, day, weekdayOf(day), w.RNG())
				dayIdx = 0
			}
			dayEnd := float64(day+1) * 86400
			stop := math.Min(simNext, dayEnd)
			// Deliver every event with TimeSec in (simNow, stop].
			var batch []sniffer.Capture
			n := 0
			for dayIdx < len(dayEvents) && dayEvents[dayIdx].TimeSec <= stop {
				ev := dayEvents[dayIdx]
				dayIdx++
				if ev.TimeSec <= simNow {
					continue
				}
				n++
				if c, ok := fleet.TryCapture(ev); ok {
					batch = append(batch, c)
				}
			}
			replayed += uint64(n)
			m.replayed.Add(uint64(n))
			if injector != nil {
				batch = injector.Apply(batch)
			}
			delivered += uint64(len(batch))
			m.delivered.Add(uint64(len(batch)))
			got, ierr := ingestBatch(batch)
			if ierr != nil {
				return nil, ierr
			}
			if agents == nil {
				ingested += uint64(got)
				m.ingested.Add(uint64(got))
			}
			simNow = stop
			if stop >= simNext {
				break
			}
		}
		m.simTime.Set(simNow)

		if now.Sub(lastFrame) >= cfg.FrameEvery {
			lastFrame = now
			at := simNow - 30
			t0 := time.Now()
			frame := eng.Snapshot(at)
			m.frameSec.ObserveSince(t0)
			m.located.Set(float64(len(frame)))
			devs := eng.Store().Devices()
			for i := 0; i < cfg.FixSample && len(devs) > 0; i++ {
				dev := devs[fixCursor%len(devs)]
				fixCursor++
				t0 := time.Now()
				_, err := eng.Fix(dev, at)
				m.fixSec.ObserveSince(t0)
				if err == nil {
					fixes++
				}
			}
		}
	}
	// Flush fault-delayed batches so the accounting closes.
	if injector != nil {
		if held := injector.Drain(); len(held) > 0 {
			delivered += uint64(len(held))
			m.delivered.Add(uint64(len(held)))
			got, ierr := ingestBatch(held)
			if ierr != nil {
				return nil, ierr
			}
			if agents == nil {
				ingested += uint64(got)
				m.ingested.Add(uint64(got))
			}
		}
	}
	wall := time.Since(wallStart).Seconds()
	// Close the books on the agent plane: flush every client so all sent
	// frames are acked, then fold the fleet's accounting in.
	var agentsSec *agentsSummary
	if agents != nil {
		flushCtx, flushCancel := context.WithTimeout(context.Background(), 30*time.Second)
		agentsSec, err = agents.finish(flushCtx, wall)
		flushCancel()
		if err != nil {
			return nil, err
		}
		ingested = agents.ingested.Load()
	}
	cancel()
	<-recDone  // Run's final sample lands before Close seals the file
	<-profDone // the profile cycle is cut short if still capturing
	if err := rec.Close(); err != nil {
		return nil, err
	}
	endSnap := reg.Snapshot()

	chunks, derr := ftdc.ReadFile(rec.Path())
	if derr != nil {
		return nil, fmt.Errorf("decoding own flight record: %w", derr)
	}
	st := rec.Status()
	summary := &runSummary{
		Devices:          cfg.Devices,
		APs:              cfg.APs,
		Algo:             cfg.Algo,
		Seed:             cfg.Seed,
		Chaos:            cfg.Chaos,
		Speedup:          cfg.Speedup,
		WallSeconds:      round2(wall),
		SimSeconds:       round2(simNow - simStart),
		FramesReplayed:   replayed,
		FramesDelivered:  delivered,
		FramesIngested:   ingested,
		FramesPerWallSec: round2(float64(delivered) / wall),
		Quarantined:      eng.Stats().Quarantined,
		Fix:              histDelta(startSnap, endSnap, "soak_fix_seconds"),
		MapFrame:         histDelta(startSnap, endSnap, "soak_frame_seconds"),
		PeakRSSBytes:     maxColumn(chunks, "marauder_process_rss_bytes"),
		PeakHeapBytes:    maxColumn(chunks, "marauder_process_heap_bytes"),
		MaxGoroutines:    maxColumn(chunks, "marauder_process_goroutines"),
		MaxGCPauseMs:     round4(maxColumn(chunks, "marauder_process_gc_max_pause_seconds") * 1e3),
		FTDC: ftdcInfo{
			Path:    rec.Path(),
			Chunks:  st.Chunks,
			Samples: st.Samples,
			Bytes:   st.Bytes,
		},
	}
	if gcCycles := maxColumn(chunks, "marauder_process_gc_cycles_total"); wall > 0 {
		summary.GCCyclesPerMin = round2(gcCycles * 60 / wall)
	}
	if plan.Enabled() {
		c := plan.Counters()
		summary.Faults = &c
	}
	if agentsSec != nil {
		summary.Agents = agentsSec
		if cfg.AgentsOut != "" {
			if err := obs.WriteFileAtomic(cfg.AgentsOut, func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(agentsSec)
			}); err != nil {
				return nil, err
			}
			slog.Info("agents summary written", "component", "soak", "path", cfg.AgentsOut)
		}
	}
	if profiler != nil {
		ps := &profileSummary{Artifacts: profDir}
		if attr := profiler.Attribution(); attr != nil {
			ps.CPUPath = attr.Path
			ps.Samples = attr.Samples
			ps.TotalNanos = attr.TotalNanos
			ps.TopFunctions = attr.TopFunctions
		}
		ps.StageSeconds = stageSumDeltas(startSnap, endSnap)
		var total float64
		for _, v := range ps.StageSeconds {
			total += v
		}
		if total > 0 {
			ps.StageShares = make(map[string]float64, len(ps.StageSeconds))
			for k, v := range ps.StageSeconds {
				ps.StageShares[k] = round4(v / total)
			}
		}
		summary.Profile = ps
		_ = profiler.Close()
	}
	slog.Info("soak finished", "component", "soak",
		"wall_sec", summary.WallSeconds, "sim_sec", summary.SimSeconds,
		"delivered", delivered, "ingested", ingested, "fixes", fixes,
		"ftdc_samples", st.Samples, "ftdc_bytes", st.Bytes)
	return summary, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

// mergeSummary folds the run (and/or a microbenchmark file) into the
// versioned BENCH_<pr>.json: existing content is preserved, runs merge
// under their names, and the write is atomic so a crash cannot leave a
// torn summary.
func mergeSummary(cfg soakConfig, summary *runSummary) error {
	doc := map[string]any{}
	if data, err := os.ReadFile(cfg.Out); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s is not JSON: %w", cfg.Out, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	doc["generated_by"] = "cmd/soak"
	doc["pr"] = cfg.PR
	doc["go"] = runtime.Version()
	runs, _ := doc["runs"].(map[string]any)
	if runs == nil {
		runs = map[string]any{}
	}
	if summary != nil {
		runs[cfg.RunName] = summary
	}
	doc["runs"] = runs
	if cfg.MergeMicro != "" {
		data, err := os.ReadFile(cfg.MergeMicro)
		if err != nil {
			return fmt.Errorf("reading -merge-micro: %w", err)
		}
		var micro any
		if err := json.Unmarshal(data, &micro); err != nil {
			return fmt.Errorf("-merge-micro %s is not JSON: %w", cfg.MergeMicro, err)
		}
		doc["micro"] = micro
	}
	for _, spec := range cfg.MergeExtra {
		name, file, ok := strings.Cut(spec, "=")
		if !ok || name == "" || file == "" {
			return fmt.Errorf("-merge-extra %q: want NAME=FILE", spec)
		}
		switch name {
		case "generated_by", "pr", "go", "runs", "micro":
			return fmt.Errorf("-merge-extra %q: key %q is reserved", spec, name)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return fmt.Errorf("reading -merge-extra %s: %w", name, err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("-merge-extra %s is not JSON: %w", file, err)
		}
		doc[name] = v
	}
	return obs.WriteFileAtomic(cfg.Out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}
