package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs need not be sorted; it is
// not modified. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentileLadder is the set of tail percentiles the benchmark reports,
// highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of percentileLadder that
// has at least ten samples beyond it in a sample of n, and false when
// even the lowest rung is unsupported (the median is then the only
// reportable point).
func tailPercentile(n int) (float64, bool) {
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			return p, true
		}
	}
	return 0, false
}

// percentileName spells a percentile as a metric suffix: 99 → "p99",
// 99.9 → "p99.9".
func percentileName(p float64) string { return fmt.Sprintf("p%g", p) }

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered set of named metrics.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]metric)} }

// set records (or overwrites) one metric.
func (m *metricSet) set(name string, value float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: value, Unit: unit}
}

// latency records a timing sample as name.p50 plus the highest supported
// tail percentile, with the sample count as name.n.
func (m *metricSet) latency(name string, xs []float64, unit string) {
	m.set(name+".n", float64(len(xs)), "count")
	if len(xs) == 0 {
		return
	}
	m.set(name+".p50", quantile(xs, 0.5), unit)
	if p, ok := tailPercentile(len(xs)); ok {
		m.set(name+"."+percentileName(p), quantile(xs, p/100), unit)
	}
}

// namePattern is the shape every printed metric name must have.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitPattern is the shape every printed unit must have.
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validate reports the first malformed name or unit, or a non-finite
// value.
func (m *metricSet) validate() error {
	for _, n := range m.names {
		v := m.vals[n]
		if !namePattern.MatchString(n) {
			return fmt.Errorf("metric name %q is malformed", n)
		}
		if !unitPattern.MatchString(v.Unit) {
			return fmt.Errorf("metric %s has malformed unit %q", n, v.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	return nil
}

// pick returns the metrics named in names, in that order, failing on
// any that were not measured.
func (m *metricSet) pick(names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := m.vals[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	return out, nil
}
