package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	var b benchmarkFile
	readJSON(t, "../BENCHMARK.json", &b)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program prints %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program prints %+v", i, m, perLayer[i])
		}
	}
	// warm-render runs by hand only (README.md says why); every listed
	// workload must have a driver.
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Name == "warm-render" {
			t.Errorf("BENCHMARK.json workload %q has no driver or is the manual warm-render", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads; the program has %d besides warm-render", len(b.Workloads), len(workloads)-1)
	}
}

// TestPredictionsNameKnownMetrics checks that the prediction table only
// names metrics and workloads the benchmark reports.
func TestPredictionsNameKnownMetrics(t *testing.T) {
	var p struct {
		Predictions []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
			Moves   []struct {
				Workload string `json:"workload"`
				Metric   string `json:"end_to_end"`
			} `json:"moves"`
			NoChange []string `json:"no_change_on"`
		} `json:"predictions"`
	}
	readJSON(t, "predictions.json", &p)
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	covered := map[string]bool{}
	for _, pr := range p.Predictions {
		for _, m := range pr.Metrics {
			if !known[m] {
				t.Errorf("%s: unknown metric %q", pr.Layer, m)
			}
			covered[m] = true
		}
		for _, mv := range pr.Moves {
			if _, ok := workloads[mv.Workload]; !ok || !known[mv.Metric] {
				t.Errorf("%s: moves unknown %s on %s", pr.Layer, mv.Metric, mv.Workload)
			}
		}
		for _, w := range pr.NoChange {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s: unknown workload %q", pr.Layer, w)
			}
		}
	}
	var missing []string
	for _, d := range perLayer {
		if !covered[d.Name] {
			missing = append(missing, d.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("per-layer metrics without a prediction: %v", missing)
	}
}

// TestScriptIsSeededWithFixedComposition pins the serve script's
// contract: the same seed gives the same script, another seed another
// one, and every seed the same mix, grid shape and experiment spread, so
// seeds differ in order and values but not in work.
func TestScriptIsSeededWithFixedComposition(t *testing.T) {
	a, b := makeScript(defaultSeed, scriptEntries), makeScript(defaultSeed, scriptEntries)
	for i, e := range a.entries {
		if e != b.entries[i] {
			t.Fatalf("entry %d differs between two scripts of the same seed", i)
		}
	}
	other := makeScript(heldOutSeed, scriptEntries)
	if other.grids[0].Seeds[0] == a.grids[0].Seeds[0] {
		t.Errorf("two seeds produced the same first grid")
	}
	for _, sc := range []script{a, other} {
		mix := sc.mix()
		if mix[entryNovel] != scriptEntries/2 || mix[entryRepeat] != 3*scriptEntries/10 || mix[entryExperiment] != scriptEntries/5 {
			t.Errorf("mix %v, want 1/2 novel, 3/10 repeat, 1/5 experiment of %d", mix, scriptEntries)
		}
		if sc.entries[0].Kind != entryNovel || len(sc.grids) != mix[entryNovel] {
			t.Errorf("script must open with a novel grid and hold one grid per novel entry")
		}
		perExp := map[string]int{}
		for i, e := range sc.entries {
			switch e.Kind {
			case entryRepeat:
				if e.Grid >= len(sc.prefix(i).grids) {
					t.Errorf("entry %d repeats grid %d before it was submitted", i, e.Grid)
				}
			case entryExperiment:
				perExp[e.Exp]++
			}
		}
		seeds := map[int64]bool{}
		for i, g := range sc.grids {
			if len(g.Seeds) != 1 || !reflect.DeepEqual(g, smokeGrid(g.Seeds[0])) || seeds[g.Seeds[0]] {
				t.Errorf("grid %d is %+v, want r3dservesmoke's grid with a seed of its own", i, g)
			}
			seeds[g.Seeds[0]] = true
		}
		for name, c := range perExp {
			if c < mix[entryExperiment]/len(tinyMix) || c > mix[entryExperiment]/len(tinyMix)+1 {
				t.Errorf("experiment %s appears %d times of %d", name, c, mix[entryExperiment])
			}
		}
	}
	p := a.prefix(probeEntries)
	for i, e := range p.entries {
		if e != a.entries[i] || (e.Kind != entryExperiment && e.Grid >= len(p.grids)) {
			t.Fatalf("prefix entry %d is not the script's or refers past its grids", i)
		}
	}
}

// TestEulerStepsMatchesTheSubstepRule checks the DTM step count against
// hand-computed cases of RunPhase's interval and sub-step split.
func TestEulerStepsMatchesTheSubstepRule(t *testing.T) {
	for _, c := range []struct {
		horizon, interval, maxStep float64
		want                       int64
	}{
		{1, 1, 1e9, 1},       // one interval, one step
		{1, 1, 3e8, 4},       // 1e9 ps in steps of ≤ 3e8: 3 full + 1 partial
		{2.5, 1, 5e8, 5},     // intervals 1, 1, 0.5 ms → 2 + 2 + 1
		{4, 1, 1e9 / 16, 64}, // the shape of the study's default horizon
	} {
		if got := eulerSteps(c.horizon, c.interval, c.maxStep); got != c.want {
			t.Errorf("eulerSteps(%v, %v, %v) = %d, want %d", c.horizon, c.interval, c.maxStep, got, c.want)
		}
	}
}
