package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tinyRun runs a workload's test-size list once untraced and once traced.
func tinyRun(t *testing.T, wl workload, trace bool) *report {
	t.Helper()
	rep, err := measure(wl.plan(1, true), options{trace: trace, setupReps: 1, minPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.failures {
		t.Errorf("%s: %s", wl.name, f)
	}
	return rep
}

// TestMetricsMatchBenchmarkFile checks that every metric the benchmark
// prints is declared in BENCHMARK.json with the same unit, that every
// declared metric is printed, and that names use only [A-Za-z0-9_.-].
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if !equalStrings(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	wl, _ := findWorkload("overhead")
	e2e, _ := endToEnd(tinyRun(t, wl, false))
	layers, _ := perLayer(tinyRun(t, wl, true))
	check := func(kind string, printed map[string]metric, decl []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		seen := map[string]bool{}
		for _, d := range decl {
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s metric name %q has characters outside [A-Za-z0-9_.-]", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s metric %q declared twice", kind, d.Name)
			}
			seen[d.Name] = true
			m, ok := printed[d.Name]
			if !ok {
				t.Errorf("%s metric %q is declared but not printed", kind, d.Name)
				continue
			}
			if m.Unit == "" || m.Unit != d.Unit {
				t.Errorf("%s metric %q printed with unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
			}
		}
		for name := range printed {
			if !seen[name] {
				t.Errorf("%s metric %q is printed but not declared in BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", e2e, b.EndToEnd)
	check("per-layer", layers, b.PerLayer)
}

// TestLayerTableCoversPerLayerMetrics checks that layers.json places every
// per-layer metric in exactly one row of the layer table.
func TestLayerTableCoversPerLayerMetrics(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		DefaultSeed uint64 `json:"default_seed"`
		HeldOutSeed uint64 `json:"held_out_seed"`
		Layers      []struct {
			Metrics []string `json:"metrics"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatal(err)
	}
	if table.DefaultSeed == table.HeldOutSeed {
		t.Errorf("held-out seed equals the default seed")
	}
	rows := map[string]int{}
	for _, l := range table.Layers {
		for _, m := range l.Metrics {
			rows[m]++
		}
	}
	b := readBenchmark(t)
	for _, m := range b.PerLayer {
		if rows[m.Name] != 1 {
			t.Errorf("per-layer metric %q appears in %d rows of layers.json", m.Name, rows[m.Name])
		}
		delete(rows, m.Name)
	}
	for m := range rows {
		t.Errorf("layers.json names %q, which BENCHMARK.json does not declare", m)
	}
}

// TestSeedFixesItemList checks that a seed regenerates the same item list
// and another seed draws a different one.
func TestSeedFixesItemList(t *testing.T) {
	ids := func(w workload, seed uint64) []string {
		var out []string
		for _, s := range w.plan(seed, false) {
			out = append(out, s.id)
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := ids(w, 2020), ids(w, 2020), ids(w, 2021)
		if !equalStrings(a, b) {
			t.Errorf("%s: seed 2020 gave two different item lists", w.name)
		}
		if equalStrings(a, c) {
			t.Errorf("%s: seeds 2020 and 2021 gave the same item list", w.name)
		}
	}
}

// TestTinyWorkloads runs every workload at test size, untraced and traced.
// Traced and untraced runs must agree exactly on every verdict and count,
// every end-to-end metric must be a finite positive number (decided_frac
// at most 1), and in every traced pass the layer self times beneath an
// item must sum to no more than the item's latency.
func TestTinyWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			plain := tinyRun(t, wl, false)
			traced := tinyRun(t, wl, true)
			for i := range plain.outcomes {
				if plain.outcomes[i].digest != traced.outcomes[i].digest {
					t.Errorf("item %s: untraced %q, traced %q", plain.items[i], plain.outcomes[i].digest, traced.outcomes[i].digest)
				}
			}
			e2e, _ := endToEnd(plain)
			for name, m := range e2e {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s = %v, want a finite positive value", name, m.Value)
				}
			}
			if f := e2e["decided_frac"].Value; f > 1 {
				t.Errorf("decided_frac = %v > 1", f)
			}
			nTraced := 0
			for p, ps := range traced.passes {
				if !ps.traced {
					continue
				}
				nTraced++
				for i, layer := range traced.tr.itemLayerTimes(p) {
					if layer > ps.lat[i] {
						t.Errorf("pass %d item %s: layer self times %.6fs exceed its latency %.6fs", p, traced.items[i], layer, ps.lat[i])
					}
				}
			}
			if nTraced == 0 {
				t.Errorf("the traced run made no traced pass")
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
