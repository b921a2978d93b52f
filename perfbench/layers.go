package main

import (
	"fmt"
	"strings"
)

// perLayerMetrics lists every per-layer metric in BENCHMARK.json order.
// A metric in seconds is the self time of the span named like it without
// the _s suffix; the others are counters, or values derived below.
var perLayerMetrics = []struct{ name, unit string }{
	{"benchgen.generate_s", "s"}, {"lock.lock_s", "s"}, {"orap.protect_s", "s"}, {"scan.unlock_s", "s"},
	{"ir.compile_s", "s"}, {"ir.nodes", "count"},
	{"faultsim.random_s", "s"}, {"faultsim.random_dropped", "count"}, {"faultsim.drop_s", "s"},
	{"faultsim.drop_calls", "count"}, {"faultsim.drop_hit_frac", "frac"},
	{"atpg.detected_s", "s"}, {"atpg.redundant_s", "s"}, {"atpg.aborted_s", "s"},
	{"atpg.targeted", "count"}, {"atpg.redundant", "count"}, {"atpg.aborted", "count"},
	{"sat.conflicts", "count"}, {"sat.propagations", "count"}, {"sat.props_per_s", "1/s"},
	{"sat.learnt", "count"}, {"sat.reductions", "count"},
	{"cnf.miter_s", "s"},
	{"attack.sat_s", "s"}, {"attack.doubledip_s", "s"}, {"attack.appsat_s", "s"}, {"attack.hill_s", "s"},
	{"attack.iterations", "count"}, {"attack.solve_s", "s"},
	{"oracle.query_s", "s"}, {"oracle.queries", "count"}, {"oracle.crossings", "count"},
	{"oracle.hit_frac", "frac"}, {"oracle.scan_cycles", "count"},
	{"audit.structural_s", "s"}, {"audit.exact_s", "s"}, {"audit.equiv_s", "s"},
	{"bdd.nodes", "count"}, {"bdd.peak_nodes", "count"}, {"bdd.cache_hit_frac", "frac"}, {"bdd.fallbacks", "count"},
	{"metrics.hd_s", "s"}, {"sim.gate_evals_per_s", "1/s"},
	{"synth.compare_s", "s"},
	{"trace.overhead_s", "s"},
}

// setupSpans are the layers set-up runs; their self time is the median
// over set-up repetitions, added to what the measured passes spend in
// them (the overhead rows lock and protect inside the row).
var setupSpans = []string{"benchgen.generate", "lock.lock", "orap.protect", "scan.unlock"}

// perLayer computes the per-layer metrics: self times are medians over
// the traced passes, counters come from the first traced pass (they
// repeat exactly), and the tracing overhead is the traced passes' median
// run time minus the untraced passes'.
func perLayer(rep *report) (map[string]metric, string) {
	tr := rep.tr
	var tracedPasses []int
	var tracedRun, plainRun []float64
	for p, ps := range rep.passes {
		if ps.traced {
			tracedPasses = append(tracedPasses, p)
			tracedRun = append(tracedRun, ps.run)
		} else {
			plainRun = append(plainRun, ps.run)
		}
	}
	self := func(name string) float64 {
		var xs []float64
		for _, p := range tracedPasses {
			xs = append(xs, tr.selfTimes(p)[name])
		}
		return median(xs)
	}
	setupSelf := func(name string) float64 {
		var xs []float64
		for r := range rep.setup {
			xs = append(xs, tr.selfTimes(-1 - r)[name])
		}
		return median(xs)
	}
	counter := func(name string) float64 { return tr.counts[name][tracedPasses[0]] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v := make(map[string]float64)
	for _, m := range perLayerMetrics {
		if m.unit == "s" {
			v[m.name] = self(strings.TrimSuffix(m.name, "_s"))
		} else {
			v[m.name] = counter(m.name)
		}
	}
	for _, s := range setupSpans {
		v[s+"_s"] += setupSelf(s)
	}
	v["faultsim.drop_hit_frac"] = ratio(counter("faultsim.drop_hits"), counter("faultsim.drop_calls"))
	v["oracle.hit_frac"] = ratio(counter("oracle.cache_hits"), counter("oracle.session_queries"))
	v["bdd.cache_hit_frac"] = ratio(counter("bdd.cache_hits"), counter("bdd.cache_lookups"))
	// The attack spans' self time already excludes the oracle crossings
	// beneath them; their sum is the attacks' own solving time.
	v["attack.solve_s"] = v["attack.sat_s"] + v["attack.doubledip_s"] + v["attack.appsat_s"] + v["attack.hill_s"]
	// The exact audit re-runs the structural analysis inside; the replayed
	// structural audit's time is taken out of it.
	v["audit.exact_s"] -= v["audit.structural_s"]
	satTime := v["atpg.detected_s"] + v["atpg.redundant_s"] + v["atpg.aborted_s"] + v["attack.solve_s"]
	v["sat.props_per_s"] = ratio(v["sat.propagations"], satTime)
	v["sim.gate_evals_per_s"] = ratio(counter("sim.gate_evals"), v["metrics.hd_s"])
	v["trace.overhead_s"] = median(tracedRun) - median(plainRun)

	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	note := fmt.Sprintf("traced_passes=%d untraced_passes=%d traced_run_s=%.4f untraced_run_s=%.4f spans=%d",
		len(tracedRun), len(plainRun), median(tracedRun), median(plainRun), len(tr.spans))
	return out, note
}
