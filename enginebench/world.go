package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
)

// scenario sizes one workload's world and the capture slice it replays.
type scenario struct {
	Devices int
	APs     int
	SliceLo float64 // slice start, seconds into the generated day
	SliceHi float64 // slice end (exclusive)
	// WalkEvery makes every WalkEvery-th device walk a random-waypoint
	// route instead of staying home; 0 keeps every device home.
	WalkEvery int
	// FixedCrowd draws the device homes with the campus, so the seed
	// draws only the traffic.
	FixedCrowd bool
	// Arrivals staggers the crowd: device i arrives at the start of part
	// i mod Arrivals of the slice and stays. 0 or 1: all present at once.
	Arrivals int
}

// sliceScenario is a campus of the given population and AP count whose
// replayed slice starts at hour startHour of the day and lasts minutes.
func sliceScenario(devices, aps int, startHour, minutes float64) scenario {
	lo := startHour * 3600
	return scenario{Devices: devices, APs: aps, SliceLo: lo, SliceHi: lo + minutes*60, WalkEvery: 8}
}

// trainingScenario is sliceScenario for AP-Rad training, with a third of
// the crowd arriving in each hour. Every device stays home: AP-Rad trains
// on each device's AP set over the whole history, and a walker's set
// joins APs hundreds of metres apart, which sends most radii to the
// repair pass's MaxRadius. The arrivals bring new co-observations every
// hour, so every retrain changes the knowledge and the map after it
// starts from an empty Γ cache. The crowd is fixed with the campus: the
// simplex pivot count of AP-Rad's LP depends on who stands where (417 to
// 547 pivots, 0.23 to 0.51 s per retrain, over ten crowds on one campus),
// so a seed-drawn crowd would make the seed, not the engine, set the
// retrain time.
func trainingScenario(devices, aps int, startHour, minutes float64) scenario {
	sc := sliceScenario(devices, aps, startHour, minutes)
	sc.WalkEvery = 0
	sc.FixedCrowd = true
	sc.Arrivals = int(minutes / 60)
	return sc
}

// world is everything set-up hands to a workload: the AP knowledge an
// attacker holds, the captures of the replayed slice in capture order,
// and the ground truth the checks compare against.
type world struct {
	Know    core.Knowledge
	Caps    []sniffer.Capture
	Walkers []dot11.MAC             // random-waypoint devices, ascending
	heard   map[dot11.MAC][]float64 // capture times of each walker
	TruthAt func(dot11.MAC, float64) (geom.Point, bool)
	Slice   [2]float64 // replayed slice [lo, hi), seconds into the day
}

// profileMix is the device mix of sim.DefaultPopulation. The benchmark
// assigns it in rotation rather than at random, so every seed carries
// the same mix.
var profileMix = []sim.Profile{
	sim.ProfileStudentLaptop, sim.ProfileStudentLaptop, sim.ProfileStudentLaptop,
	sim.ProfileSmartphone, sim.ProfileSmartphone, sim.ProfileSmartphone, sim.ProfileSmartphone,
	sim.ProfileQuietClient, sim.ProfileQuietClient,
	sim.ProfileResident,
}

// quietChatterSec is the mean interval between a quiet device's
// associated frames, as in sim.OfficeTraceDay.
const quietChatterSec = 1200

// campusHalfSide is half the side of the square campus, in metres: the
// area cmd/soak gives populations up to 2,000.
const campusHalfSide = 350

// campusSeed draws the AP deployment. The campus is part of a workload's
// definition and the same for every seed: AP-Rad's LP on one random
// layout can take twice the simplex pivots of another, which would make
// the seed, not the engine, set the retrain time.
const campusSeed = 1

// buildWorld is the benchmark's set-up: the workload's campus (APs
// stratified over the area, see campusSeed), a crowd drawn from seed (homes
// uniform over the area, the profile mix, every WalkEvery-th device
// walking a random-waypoint route), the office traffic of the slice, and
// the 2x2 sniffer fleet's captures of it.
func buildWorld(sc scenario, seed int64) (*world, error) {
	w := sim.NewWorld(seed)
	rng := w.RNG()
	min, max := geom.Pt(-campusHalfSide, -campusHalfSide), geom.Pt(campusHalfSide, campusHalfSide)
	campus := rand.New(rand.NewSource(campusSeed))
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N: sc.APs, Min: min, Max: max, RangeMin: 70, RangeMax: 130,
	}, campus)
	if err != nil {
		return nil, err
	}
	for i, p := range stratified(len(aps), min, max, campus) {
		aps[i].Pos = p
	}
	w.APs = aps
	crowd := rng
	if sc.FixedCrowd {
		crowd = campus
	}
	homes := stratified(sc.Devices, min, max, crowd)
	byMAC := make(map[dot11.MAC]*sim.Device, sc.Devices)
	var walkers []dot11.MAC
	for i := 0; i < sc.Devices; i++ {
		d := &sim.Device{
			MAC:     sim.NewMAC(0xD0, i),
			Profile: profileMix[i%len(profileMix)],
			Home:    homes[i],
			TX:      rf.TypicalMobile,
		}
		if sc.WalkEvery > 0 && i%sc.WalkEvery == 0 {
			d.Mobility = sim.NewRandomWaypoint(min, max, 1.2, 86400, seed+int64(i))
			walkers = append(walkers, d.MAC)
		}
		w.AddDevice(d)
		byMAC[d.MAC] = d
	}
	sort.Slice(walkers, func(i, j int) bool { return lessMAC(walkers[i], walkers[j]) })
	infos := make([]core.APInfo, 0, len(aps))
	for _, ap := range aps {
		infos = append(infos, core.APInfo{BSSID: ap.MAC, Pos: ap.Pos, MaxRange: ap.MaxRange})
	}

	arrivals := sc.Arrivals
	if arrivals < 1 {
		arrivals = 1
	}
	events := sliceTraffic(w, sc.SliceLo, sc.SliceHi, arrivals, rng)
	caps := fleet2x2(min, max).CaptureAll(events)
	heard := make(map[dot11.MAC][]float64, len(walkers))
	for _, m := range walkers {
		heard[m] = nil
	}
	for _, c := range caps {
		dev := c.Frame.Addr2
		if c.FromAP {
			dev = c.Frame.Addr1
		}
		if ts, ok := heard[dev]; ok {
			heard[dev] = append(ts, c.TimeSec)
		}
	}
	return &world{
		Know:    core.NewKnowledge(infos),
		Caps:    caps,
		Walkers: walkers,
		heard:   heard,
		TruthAt: func(m dot11.MAC, t float64) (geom.Point, bool) {
			d, ok := byMAC[m]
			if !ok {
				return geom.Point{}, false
			}
			return d.PosAt(t), true
		},
		Slice: [2]float64{sc.SliceLo, sc.SliceHi},
	}, nil
}

// stratified draws n points uniformly over [min, max], one per cell of a
// near-square grid (cells chosen at random when the grid has spares):
// uniform, but with the same density in every part of the area, so the
// seed does not change how much work the crowd makes.
func stratified(n int, min, max geom.Point, rng *rand.Rand) []geom.Point {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	cw, ch := (max.X-min.X)/float64(cols), (max.Y-min.Y)/float64(rows)
	out := make([]geom.Point, n)
	for i, c := range rng.Perm(rows * cols)[:n] {
		out[i] = geom.Pt(min.X+(float64(c%cols)+rng.Float64())*cw, min.Y+(float64(c/cols)+rng.Float64())*ch)
	}
	return out
}

// sliceTraffic generates the office traffic of [lo, hi) with the
// per-device model of sim.OfficeTraceDay — scan bursts for probing
// profiles, associated chatter for quiet ones, at the profile's interval
// times a uniform [0.5, 1.5) jitter — but with fixed presence: device i
// arrives at the start of part i mod arrivals of the slice, with a random
// phase, and stays. A seed changes positions and timing, not the amount
// of traffic.
func sliceTraffic(w *sim.World, lo, hi float64, arrivals int, rng *rand.Rand) []sim.TxEvent {
	var events []sim.TxEvent
	part := (hi - lo) / float64(arrivals)
	for i, dev := range w.Devices {
		interval := dev.Profile.ProbeIntervalSec
		if !dev.Profile.Probes {
			interval = quietChatterSec
		}
		seq := uint16(1 + rng.Intn(4000))
		arrive := lo + float64(i%arrivals)*part
		for t := arrive + rng.Float64()*interval; t < hi; t += interval * (0.5 + rng.Float64()) {
			pos := dev.PosAt(t)
			if dev.Profile.Probes {
				events = append(events, sim.ScanBurst(w, dev, t, pos, seq)...)
			} else {
				events = append(events, sim.AssociatedChatter(w, dev, t, pos, seq)...)
			}
			seq++
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TimeSec < events[j].TimeSec })
	return events
}

// fleet2x2 places four sniffer sites on a 2x2 grid across the area.
func fleet2x2(min, max geom.Point) *sniffer.Fleet {
	const k = 2
	configs := make([]sniffer.Config, 0, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			configs = append(configs, sniffer.Config{
				Pos: geom.Pt(
					min.X+(float64(i)+0.5)*(max.X-min.X)/k,
					min.Y+(float64(j)+0.5)*(max.Y-min.Y)/k,
				),
				Chain: rf.ChainLNA(),
				Plan:  dot11.DefaultPlan(),
			})
		}
	}
	return sniffer.NewFleet(configs...)
}

func lessMAC(a, b dot11.MAC) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// activeWalkers returns, in address order, the walkers captured at least
// once in (from, to].
func (w *world) activeWalkers(from, to float64) []dot11.MAC {
	var out []dot11.MAC
	for _, m := range w.Walkers {
		ts := w.heard[m]
		i := sort.SearchFloat64s(ts, math.Nextafter(from, math.Inf(1)))
		if i < len(ts) && ts[i] <= to {
			out = append(out, m)
		}
	}
	return out
}
