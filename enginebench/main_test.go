package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
)

// tinyScenario keeps the tests' set-up well under a second.
func tinyScenario(hours float64) scenario { return sliceScenario(120, 80, 10, 60*hours) }

// useTinyWorkloads swaps in small worlds for one test.
func useTinyWorkloads(t *testing.T) {
	saved := workloads
	workloads = map[string]workload{
		"wire_ingest":   {sc: tinyScenario(1), run: runWire},
		"live_map":      {sc: tinyScenario(1), run: runLiveMap},
		"aprad_retrain": {sc: tinyScenario(2), run: runAPRad},
	}
	t.Cleanup(func() { workloads = saved })
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var printedLine = regexp.MustCompile(`^(metric|layer)\s+([A-Za-z0-9_.-]+)\s+(\S+)\s+(\S+)$`)

// TestEveryWorkloadRunsAndChecks runs each workload untraced and traced
// on a seed no other test uses: every output check passes, the JSON line
// carries exactly the metrics BENCHMARK.json lists, and every printed
// name is well formed and carries a unit.
func TestEveryWorkloadRunsAndChecks(t *testing.T) {
	useTinyWorkloads(t)
	spec := readSpec(t)
	// A traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for name := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace"+traced, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", name, "-seed", "7", "-seconds", "0.01", "-trace", traced}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				var lines []string
				sc := bufio.NewScanner(&out)
				for sc.Scan() {
					lines = append(lines, sc.Text())
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					if l == "" || l[0] == 's' || l[0] == 'c' {
						continue // spans note or a failed check
					}
					m := printedLine.FindStringSubmatch(l)
					if m == nil || !unitPattern.MatchString(m[4]) {
						t.Errorf("malformed line %q", l)
						continue
					}
					if _, err := strconv.ParseFloat(m[3], 64); err != nil {
						t.Errorf("line %q: value: %v", l, err)
					}
					printed++
				}
				if printed < len(want) {
					t.Errorf("%d metric lines, want at least %d", printed, len(want))
				}
			})
		}
	}
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram pins BENCHMARK.json to the names the program
// prints.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	if len(s.EndToEnd) != len(e2eNames) || len(s.PerLayer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(s.EndToEnd), len(s.PerLayer), len(e2eNames), len(layerNames))
	}
	for i, m := range s.EndToEnd {
		if m.Name != e2eNames[i] {
			t.Errorf("end_to_end[%d] = %s, program %s", i, m.Name, e2eNames[i])
		}
	}
	for i, m := range s.PerLayer {
		if m.Name != layerNames[i] || m.Unit != layerUnits[m.Name] {
			t.Errorf("per_layer[%d] = %s %s, program %s %s", i, m.Name, m.Unit, layerNames[i], layerUnits[layerNames[i]])
		}
	}
}

// TestWrapperKeepsInterfaces guards the engine's code path: the counting
// wrapper must implement exactly the optional interfaces of what it wraps.
func TestWrapperKeepsInterfaces(t *testing.T) {
	for _, inner := range []core.Localizer{
		core.MLocalizer{}, core.APRadLocalizer{Cfg: radCfg}, core.CentroidLocalizer{}, core.ClosestAPLocalizer{},
	} {
		w, _, err := wrapLocalizer(inner, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := interfacesOf(w), interfacesOf(inner); got != want {
			t.Errorf("%s: wrapper implements %v, inner %v", inner.Name(), got, want)
		}
	}
}

func interfacesOf(l core.Localizer) [3]bool {
	_, tracked := l.(core.TrackedLocalizer)
	_, trains := l.(core.KnowledgeTrainer)
	_, diagnosed := l.(core.DiagnosedTrainer)
	return [3]bool{tracked, trains, diagnosed}
}
