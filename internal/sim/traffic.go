package sim

import (
	"math/rand"
	"sort"

	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/rf"
)

// Profile describes a device's operating-system probing behaviour and
// presence pattern — the driver behind the paper's feasibility experiment
// (Figs 10-11): most mobile OSes actively scan by sending probe requests,
// some stay quiet unless associated.
type Profile struct {
	Name string `json:"name"`
	// Probes reports whether the OS actively scans with probe requests.
	Probes bool `json:"probes"`
	// ProbeIntervalSec is the mean interval between scan bursts.
	ProbeIntervalSec float64 `json:"probeIntervalSec"`
	// WeekdayPresence and WeekendPresence are the probabilities the device
	// shows up on a given weekday/weekend day (the office population of the
	// paper's 7-day trace).
	WeekdayPresence float64 `json:"weekdayPresence"`
	WeekendPresence float64 `json:"weekendPresence"`
	// SessionHours is how long a present device stays, in hours.
	SessionHours float64 `json:"sessionHours"`
}

// Standard device profiles. The mix is tuned so the synthetic 7-day trace
// reproduces the paper's findings: >50% of found mobiles probe every day,
// with peaks above 90%, and more devices on weekdays than weekends.
var (
	// ProfileStudentLaptop is a laptop brought to campus on weekdays; its
	// OS scans aggressively.
	ProfileStudentLaptop = Profile{
		Name: "student-laptop", Probes: true, ProbeIntervalSec: 60,
		WeekdayPresence: 0.85, WeekendPresence: 0.15, SessionHours: 6,
	}
	// ProfileSmartphone probes in bursts whenever its screen wakes.
	ProfileSmartphone = Profile{
		Name: "smartphone", Probes: true, ProbeIntervalSec: 120,
		WeekdayPresence: 0.7, WeekendPresence: 0.35, SessionHours: 8,
	}
	// ProfileQuietClient is configured not to probe (hidden-network-averse
	// OS or passive scanner); it is found only through its associated
	// traffic.
	ProfileQuietClient = Profile{
		Name: "quiet-client", Probes: false,
		WeekdayPresence: 0.5, WeekendPresence: 0.1, SessionHours: 7,
	}
	// ProfileResident is a nearby residence device present every day.
	ProfileResident = Profile{
		Name: "resident", Probes: true, ProbeIntervalSec: 300,
		WeekdayPresence: 0.9, WeekendPresence: 0.9, SessionHours: 12,
	}
)

// DefaultPopulation builds n devices with a realistic profile mix, placed
// uniformly in the given area.
func DefaultPopulation(n int, min, max geom.Point, rng *rand.Rand) []*Device {
	profiles := []Profile{
		ProfileStudentLaptop, ProfileStudentLaptop, ProfileStudentLaptop,
		ProfileSmartphone, ProfileSmartphone, ProfileSmartphone, ProfileSmartphone,
		ProfileQuietClient, ProfileQuietClient,
		ProfileResident,
	}
	devices := make([]*Device, 0, n)
	for i := 0; i < n; i++ {
		devices = append(devices, &Device{
			MAC:     NewMAC(0xD0, i),
			Profile: profiles[rng.Intn(len(profiles))],
			Home: geom.Point{
				X: min.X + rng.Float64()*(max.X-min.X),
				Y: min.Y + rng.Float64()*(max.Y-min.Y),
			},
			TX: rf.TypicalMobile,
		})
	}
	return devices
}

// TxEvent is one frame on the air: what was sent, when, from where, on
// which channel, by what radio. The sniffer decides per-event whether its
// receiver chain can capture and decode it.
type TxEvent struct {
	// TimeSec is the transmission time in seconds from trace start.
	TimeSec float64
	// Pos is the transmitter's position.
	Pos geom.Point
	// Channel is the 2.4 GHz channel the frame is sent on.
	Channel int
	// Frame is the 802.11 frame.
	Frame *dot11.Frame
	// TX is the transmitter's radio.
	TX rf.Transmitter
	// FromAP marks AP-originated frames (beacons, probe responses).
	FromAP bool
}

// sortEvents orders events by time.
func sortEvents(evs []TxEvent) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].TimeSec < evs[j].TimeSec })
}

// ScanBurst generates the frames of one active scan by dev at time t and
// position pos: a broadcast probe request on every channel, plus a probe
// response from every communicable AP on the AP's channel.
//
// This is the paper's core observable: the probing traffic between a mobile
// and the set of APs communicable with it.
func ScanBurst(w *World, dev *Device, t float64, pos geom.Point, seq uint16) []TxEvent {
	events := make([]TxEvent, 0, dot11.MaxChannel+4)
	for ch := dot11.MinChannel; ch <= dot11.MaxChannel; ch++ {
		freq, err := dot11.ChannelFreqHz(ch)
		if err != nil {
			continue
		}
		tx := dev.TX
		tx.FreqHz = freq
		events = append(events, TxEvent{
			TimeSec: t + float64(ch-1)*0.004, // 4 ms dwell per channel
			Pos:     pos,
			Channel: ch,
			Frame:   dot11.NewProbeRequest(dev.MAC, "", seq),
			TX:      tx,
		})
	}
	for _, ap := range w.CommunicableAPs(pos) {
		events = append(events, TxEvent{
			TimeSec: t + float64(ap.Channel-1)*0.004 + 0.001,
			Pos:     ap.Pos,
			Channel: ap.Channel,
			Frame:   dot11.NewProbeResponse(ap.MAC, dev.MAC, ap.SSID, ap.Channel, seq),
			TX:      ap.TX,
			FromAP:  true,
		})
	}
	return events
}

// AssociatedChatter generates the non-probing traffic of a quiet device: a
// handful of frames to its nearest communicable AP. Such devices are
// "found" by the sniffer but not "probing" — the denominator of the
// paper's Fig 11 percentages.
func AssociatedChatter(w *World, dev *Device, t float64, pos geom.Point, seq uint16) []TxEvent {
	aps := w.CommunicableAPs(pos)
	if len(aps) == 0 {
		return nil
	}
	best := aps[0]
	for _, ap := range aps[1:] {
		if pos.Dist(ap.Pos) < pos.Dist(best.Pos) {
			best = ap
		}
	}
	freq, err := dot11.ChannelFreqHz(best.Channel)
	if err != nil {
		return nil
	}
	tx := dev.TX
	tx.FreqHz = freq
	fr := &dot11.Frame{
		Type:    dot11.TypeManagement,
		Subtype: dot11.SubtypeAssocReq,
		Addr1:   best.MAC,
		Addr2:   dev.MAC,
		Addr3:   best.MAC,
		Seq:     seq & dot11.MaxSeq, // 12-bit sequence number wraps modulo 4096
	}
	return []TxEvent{{
		TimeSec: t, Pos: pos, Channel: best.Channel, Frame: fr, TX: tx,
	}}
}

// BeaconTraffic generates beacons from every AP over the window at the
// given interval (102.4 ms in real networks; configurable here to bound
// event counts in long simulations).
func BeaconTraffic(w *World, startSec, durationSec, intervalSec float64) []TxEvent {
	var events []TxEvent
	seq := uint16(0)
	steps := int(durationSec / intervalSec)
	for i := 0; i < steps; i++ {
		t := startSec + float64(i)*intervalSec
		for _, ap := range w.APs {
			events = append(events, TxEvent{
				TimeSec: t,
				Pos:     ap.Pos,
				Channel: ap.Channel,
				Frame:   dot11.NewBeacon(ap.MAC, ap.SSID, ap.Channel, uint64(t*1e6), seq),
				TX:      ap.TX,
				FromAP:  true,
			})
		}
		seq++
	}
	sortEvents(events)
	return events
}

// WalkTrace generates the probing traffic of a device walking a mobility
// trajectory, scanning every intervalSec. The returned events include the
// AP probe responses, so the capture pipeline sees both link directions.
func WalkTrace(w *World, dev *Device, durationSec, intervalSec float64) []TxEvent {
	var events []TxEvent
	seq := uint16(1)
	for t := 0.0; t < durationSec; t += intervalSec {
		pos := dev.PosAt(t)
		events = append(events, ScanBurst(w, dev, t, pos, seq)...)
		seq++
	}
	sortEvents(events)
	return events
}

// secondsPerDay is one day of trace time.
const secondsPerDay = 86400.0

// OfficeTraceDay generates one day of the feasibility trace: every device
// present that day emits either scan bursts (probing profiles) or
// associated chatter (quiet profiles) during its session hours.
// weekday selects which presence probability applies.
func OfficeTraceDay(w *World, day int, weekday bool, rng *rand.Rand) []TxEvent {
	var events []TxEvent
	dayStart := float64(day) * secondsPerDay
	for _, dev := range w.Devices {
		p := dev.Profile.WeekendPresence
		if weekday {
			p = dev.Profile.WeekdayPresence
		}
		if rng.Float64() >= p {
			continue
		}
		// Session starts between 08:00 and 12:00.
		sessionStart := dayStart + (8+4*rng.Float64())*3600
		sessionLen := dev.Profile.SessionHours * 3600
		interval := dev.Profile.ProbeIntervalSec
		if !dev.Profile.Probes {
			// Quiet devices chat a few times an hour.
			interval = 1200
		}
		seq := uint16(1)
		for t := sessionStart; t < sessionStart+sessionLen; t += interval * (0.5 + rng.Float64()) {
			pos := dev.PosAt(t - dayStart)
			if dev.Profile.Probes {
				events = append(events, ScanBurst(w, dev, t, pos, seq)...)
			} else {
				events = append(events, AssociatedChatter(w, dev, t, pos, seq)...)
			}
			seq++
		}
	}
	sortEvents(events)
	return events
}

// OfficeTrace generates a multi-day feasibility trace starting on the given
// weekday (0=Sunday … 6=Saturday), mirroring the paper's 7-day office
// capture from Friday Oct 24 to Thursday Oct 30, 2008.
func OfficeTrace(w *World, days int, startWeekday int, rng *rand.Rand) [][]TxEvent {
	out := make([][]TxEvent, 0, days)
	for d := 0; d < days; d++ {
		wd := (startWeekday + d) % 7
		isWeekday := wd >= 1 && wd <= 5
		out = append(out, OfficeTraceDay(w, d, isWeekday, rng))
	}
	return out
}
