// Package sniffer implements the digital Marauder's map wireless traffic
// capture component: a receiver chain (package rf) split across several
// monitoring cards on a channel plan (package dot11), capturing the
// simulated 802.11 traffic of package sim.
//
// Each transmitted frame is captured iff (i) some card listens on exactly
// the frame's channel (the paper's Fig 9 shows adjacent-channel decoding
// does not happen in practice, however strong the leaked energy) and
// (ii) the link budget closes: the frame's SNR at the sniffer, after path
// loss and terrain obstruction, exceeds the card's minimum.
package sniffer

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/dot11"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/pcap"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Process-wide capture metrics: how much of the air the sniffer actually
// decodes. A dropped frame is one no monitoring card could decode — the
// link budget didn't close or no card sat near the transmit channel — and
// is otherwise invisible: it never reaches the observation store. A
// card-down loss is the subset of drops a fault plan caused: a card that
// would have decoded the frame was dead, flapping or too degraded.
var (
	mCaptured = telemetry.Default().Counter(
		"marauder_sniffer_frames_captured_total",
		"Transmitted frames the sniffer decoded.", nil)
	mDropped = telemetry.Default().Counter(
		"marauder_sniffer_frames_dropped_total",
		"Transmitted frames no monitoring card could decode.", nil)
	mLostCardDown = telemetry.Default().Counter(
		"marauder_sniffer_frames_lost_card_down_total",
		"Frames lost because the only capable monitoring card was faulted.", nil)
)

// cardUpGauge is the per-channel card health gauge, 1 up / 0 down.
func cardUpGauge(channel int) *telemetry.Gauge {
	return telemetry.Default().Gauge(
		"marauder_card_up",
		"Monitoring card health by channel: 1 up, 0 down.",
		telemetry.Labels{"channel": strconv.Itoa(channel)})
}

// Config configures a sniffer deployment.
type Config struct {
	// Pos is the sniffer's position (e.g. the CS building roof).
	Pos geom.Point
	// Chain is the receiver chain (antenna, LNA, splitter, card).
	Chain rf.Chain
	// Plan assigns monitoring cards to channels.
	Plan dot11.ChannelPlan
	// Terrain adds obstruction loss; nil means flat.
	Terrain sim.Terrain
	// PathLoss is the propagation model; nil uses log-distance n=2.8.
	PathLoss rf.PathLoss
	// Faults schedules monitoring-card failures (dead, flapping, SNR
	// degradation) against this sniffer's cards; nil means none.
	Faults *faults.Plan
}

// Sniffer captures wireless traffic at a fixed location.
type Sniffer struct {
	cfg      Config
	upGauges []*telemetry.Gauge // per plan card, aligned with cfg.Plan.Cards
}

// New creates a Sniffer, applying defaults for unset optional fields.
func New(cfg Config) *Sniffer {
	if cfg.PathLoss == nil {
		cfg.PathLoss = rf.LogDistance{Exponent: 2.8, RefDistM: 1}
	}
	if cfg.Terrain == nil {
		cfg.Terrain = sim.Flat{}
	}
	if len(cfg.Plan.Cards) == 0 {
		cfg.Plan = dot11.DefaultPlan()
	}
	s := &Sniffer{cfg: cfg, upGauges: make([]*telemetry.Gauge, len(cfg.Plan.Cards))}
	for i, ch := range cfg.Plan.Cards {
		s.upGauges[i] = cardUpGauge(ch)
		s.upGauges[i].Set(1)
	}
	return s
}

// CardHealth is one monitoring card's health at a point in time.
type CardHealth struct {
	// Channel is the card's assigned channel.
	Channel int `json:"channel"`
	// Up reports whether the card can decode at all.
	Up bool `json:"up"`
	// PenaltyDB is the card's current SNR degradation (0 when healthy).
	PenaltyDB float64 `json:"penaltyDB,omitempty"`
}

// CardHealth reports every card's health at trace time tSec, in plan
// order. Without a fault plan every card is up.
func (s *Sniffer) CardHealth(tSec float64) []CardHealth {
	out := make([]CardHealth, len(s.cfg.Plan.Cards))
	for i, ch := range s.cfg.Plan.Cards {
		out[i] = CardHealth{
			Channel:   ch,
			Up:        s.cfg.Faults.CardAlive(ch, tSec),
			PenaltyDB: s.cfg.Faults.CardPenaltyDB(ch, tSec),
		}
	}
	return out
}

// UpdateHealthMetrics refreshes the marauder_card_up gauges from the
// fault plan's schedule at tSec and returns the health it published.
func (s *Sniffer) UpdateHealthMetrics(tSec float64) []CardHealth {
	hs := s.CardHealth(tSec)
	for i, h := range hs {
		if h.Up {
			s.upGauges[i].Set(1)
		} else {
			s.upGauges[i].Set(0)
		}
	}
	return hs
}

// Capture is one successfully decoded frame.
type Capture struct {
	// TimeSec is the capture time in trace seconds.
	TimeSec float64
	// Frame is the decoded frame. A nil Frame with Raw set is a capture
	// that was corrupted in flight: the engine quarantines it instead of
	// ingesting it.
	Frame *dot11.Frame
	// Raw holds the (possibly corrupted) encoded frame bytes when fault
	// injection mangled the capture; nil for clean captures.
	Raw []byte
	// Channel is the frame's transmit channel.
	Channel int
	// CardChannel is the monitoring card that decoded it.
	CardChannel int
	// SNRDB is the demodulator SNR.
	SNRDB float64
	// FromAP marks AP-originated frames.
	FromAP bool
	// LiveMask records which of the sniffer's plan cards were live when
	// this frame was captured: bit i set means Plan.Cards[i] was up. The
	// card set can change mid-run under a fault plan, and the mask is what
	// lets a capture be interpreted against the cards that actually heard
	// the air at its timestamp.
	LiveMask uint16
}

// snr computes the frame's SNR at the sniffer including terrain loss and
// cross-channel leakage.
func (s *Sniffer) snr(ev sim.TxEvent, cardCh int) float64 {
	d := ev.Pos.Dist(s.cfg.Pos)
	base := rf.SNRDB(ev.TX, s.cfg.Chain, math.Max(d, 1), s.cfg.PathLoss)
	base -= s.cfg.Terrain.ExtraLossDB(ev.Pos, s.cfg.Pos)
	base -= dot11.LeakageDB(ev.Channel, cardCh)
	return base
}

// TryCapture reports whether the sniffer decodes the event, and on which
// card with what SNR. When several cards can decode it, the best SNR wins.
// Under a fault plan dead/flapping cards decode nothing and degraded
// cards lose SNR; a frame only a faulted card could have decoded is
// counted as a card-down loss.
func (s *Sniffer) TryCapture(ev sim.TxEvent) (Capture, bool) {
	best := Capture{SNRDB: math.Inf(-1)}
	ok := false
	lostToFault := false
	var live uint16
	for i, cardCh := range s.cfg.Plan.Cards {
		rawSNR := s.snr(ev, cardCh)
		decodableHealthy := rawSNR > s.cfg.Chain.Card.SNRMinDB &&
			dot11.DecodableCrossChannel(ev.Channel, cardCh)
		if s.cfg.Faults == nil {
			if i < 16 {
				live |= 1 << i
			}
			if !decodableHealthy {
				continue
			}
			if rawSNR > best.SNRDB {
				best = Capture{
					TimeSec:     ev.TimeSec,
					Frame:       ev.Frame,
					Channel:     ev.Channel,
					CardChannel: cardCh,
					SNRDB:       rawSNR,
					FromAP:      ev.FromAP,
				}
				ok = true
			}
			continue
		}
		if !s.cfg.Faults.CardAlive(cardCh, ev.TimeSec) {
			if decodableHealthy {
				lostToFault = true
			}
			continue
		}
		if i < 16 {
			live |= 1 << i
		}
		snr := rawSNR - s.cfg.Faults.CardPenaltyDB(cardCh, ev.TimeSec)
		if snr <= s.cfg.Chain.Card.SNRMinDB || !dot11.DecodableCrossChannel(ev.Channel, cardCh) {
			if decodableHealthy {
				lostToFault = true
			}
			continue
		}
		if snr > best.SNRDB {
			best = Capture{
				TimeSec:     ev.TimeSec,
				Frame:       ev.Frame,
				Channel:     ev.Channel,
				CardChannel: cardCh,
				SNRDB:       snr,
				FromAP:      ev.FromAP,
			}
			ok = true
		}
	}
	if ok {
		best.LiveMask = live
		mCaptured.Inc()
	} else {
		mDropped.Inc()
		if lostToFault {
			mLostCardDown.Inc()
			s.cfg.Faults.RecordCardReject()
		}
	}
	return best, ok
}

// CaptureAll filters an event stream to the frames this sniffer decodes.
func (s *Sniffer) CaptureAll(events []sim.TxEvent) []Capture {
	return s.CaptureAllInto(make([]Capture, 0, len(events)), events)
}

// CaptureAllInto appends the decoded frames to dst and returns the
// extended slice — the allocation-friendly form for delivery loops that
// accumulate a capture batch across scan bursts and hand it to a batched
// ingest path (engine.IngestCaptures) in one call instead of paying a
// store lock round-trip per frame.
func (s *Sniffer) CaptureAllInto(dst []Capture, events []sim.TxEvent) []Capture {
	for _, ev := range events {
		if c, ok := s.TryCapture(ev); ok {
			dst = append(dst, c)
		}
	}
	return dst
}

// CoverageRadius returns the maximum distance at which the sniffer decodes
// an on-channel frame from the given transmitter under its propagation
// model (ignoring terrain, which is direction-dependent).
func (s *Sniffer) CoverageRadius(tx rf.Transmitter) float64 {
	return rf.CoverageRadiusModel(tx, s.cfg.Chain, s.cfg.PathLoss, 1e6)
}

// LinkTypeRadiotap is pcap link type 127 (radiotap-prefixed 802.11).
const LinkTypeRadiotap pcap.LinkType = 127

// WritePcap serializes captures to a pcap stream (LinkTypeIEEE80211) with
// timestamps offset from the given start time.
func (s *Sniffer) WritePcap(w io.Writer, start time.Time, caps []Capture) error {
	return s.writePcap(w, start, caps, false)
}

// WritePcapRadiotap serializes captures with a radiotap header per frame
// (LinkType 127), preserving capture channel and signal strength the way
// real sniffing stacks do.
func (s *Sniffer) WritePcapRadiotap(w io.Writer, start time.Time, caps []Capture) error {
	return s.writePcap(w, start, caps, true)
}

func (s *Sniffer) writePcap(w io.Writer, start time.Time, caps []Capture, radiotap bool) error {
	link := pcap.LinkTypeIEEE80211
	if radiotap {
		link = LinkTypeRadiotap
	}
	pw := pcap.NewWriter(w, link)
	// Emit the global header before any packet so standard tools (and
	// pcap.NewReader) can stream-read the output as it is produced; it
	// also guarantees an empty capture is still a valid pcap file.
	if err := pw.WriteHeader(); err != nil {
		return err
	}
	for i, c := range caps {
		var raw []byte
		switch {
		case c.Frame != nil:
			var err error
			raw, err = c.Frame.Encode()
			if err != nil {
				return fmt.Errorf("sniffer: encode capture %d: %w", i, err)
			}
		case len(c.Raw) > 0:
			// A corrupted capture is persisted verbatim: the pcap stays a
			// faithful record of what came off the air, bit flips and all.
			raw = c.Raw
		default:
			return fmt.Errorf("sniffer: capture %d has neither frame nor raw bytes", i)
		}
		if radiotap {
			freq, err := dot11.ChannelFreqHz(c.Channel)
			if err != nil {
				return fmt.Errorf("sniffer: capture %d channel: %w", i, err)
			}
			noise := rf.ThermalNoiseDBmPerHz + s.cfg.Chain.NoiseFigureDB() +
				10*math.Log10(s.cfg.Chain.Card.BandwidthHz)
			raw = dot11.EncodeRadiotap(dot11.Radiotap{
				ChannelMHz: uint16(freq / 1e6),
				SignalDBm:  clampI8(c.SNRDB + noise),
				NoiseDBm:   clampI8(noise),
			}, raw)
		}
		ts := start.Add(time.Duration(c.TimeSec * float64(time.Second)))
		if err := pw.WritePacket(pcap.Packet{Time: ts, Data: raw}); err != nil {
			return fmt.Errorf("sniffer: write capture %d: %w", i, err)
		}
	}
	return nil
}

func clampI8(v float64) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

// ReadPcap parses a pcap stream back into captures. Radiotap captures
// (link type 127) restore per-frame channel and signal; bare-802.11
// captures come back with zero channel and SNR.
func ReadPcap(r io.Reader, start time.Time) ([]Capture, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	pkts, err := pr.ReadAll()
	if err != nil {
		return nil, err
	}
	caps := make([]Capture, 0, len(pkts))
	for i, p := range pkts {
		data := p.Data
		var c Capture
		if pr.LinkType() == LinkTypeRadiotap {
			rt, body, err := dot11.DecodeRadiotap(data)
			if err != nil {
				return nil, fmt.Errorf("sniffer: radiotap packet %d: %w", i, err)
			}
			data = body
			c.Channel = rt.Channel()
			c.SNRDB = float64(rt.SignalDBm) - float64(rt.NoiseDBm)
		}
		c.TimeSec = p.Time.Sub(start).Seconds()
		if f, err := dot11.Decode(data); err == nil {
			c.Frame = f
		} else {
			// An undecodable packet (bad FCS, truncation) must not poison
			// the replay: keep it as a raw capture so the engine quarantines
			// and counts it instead of the whole read erroring out.
			c.Raw = append([]byte(nil), data...)
		}
		caps = append(caps, c)
	}
	return caps, nil
}

// ActiveAttack models the paper's active probing-traffic collection: the
// adversary transmits spoofed deauthentication frames, forcing associated
// (quiet) devices to rescan. It returns the provoked traffic: a deauth per
// device followed by the device's scan burst, raising the fraction of
// probing mobiles toward 100%.
func ActiveAttack(w *sim.World, atTimeSec float64) []sim.TxEvent {
	var events []sim.TxEvent
	seq := uint16(1)
	for _, dev := range w.Devices {
		pos := dev.PosAt(atTimeSec)
		aps := w.CommunicableAPs(pos)
		if len(aps) == 0 {
			continue
		}
		deauth := &dot11.Frame{
			Type:    dot11.TypeManagement,
			Subtype: dot11.SubtypeDeauth,
			Addr1:   dev.MAC,
			Addr2:   aps[0].MAC, // spoofed as the AP
			Addr3:   aps[0].MAC,
			Seq:     seq & dot11.MaxSeq, // 12-bit sequence number wraps modulo 4096
		}
		tx := rf.TypicalAP
		tx.FreqHz = aps[0].TX.FreqHz
		events = append(events, sim.TxEvent{
			TimeSec: atTimeSec,
			Pos:     pos, // attack frame reaches the device; attacker position immaterial here
			Channel: aps[0].Channel,
			Frame:   deauth,
			TX:      tx,
		})
		// The deauthenticated client rescans 100 ms later.
		events = append(events, sim.ScanBurst(w, dev, atTimeSec+0.1, pos, seq+1)...)
		seq += 2
	}
	return events
}
