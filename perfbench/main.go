// Command perfbench is the repository's end-to-end benchmark. It drives
// the OraP stack only through public functions of internal/… and times
// each layer from outside, around those calls.
//
// Usage (from the repository root; run.sh builds it first):
//
//	perfbench --workload testability --seed 1 --seconds 20 --trace 0
//
// A workload is a seeded list of items — whole user-visible jobs: a Table
// II testability campaign, one oracle-guided attack, one security audit,
// one Table I row. Set-up builds every item's inputs from the seed,
// several times, and reports the median. The measured loop is closed
// with one client: items run one at a time, in the order the seed fixes,
// and the list is repeated in passes until --seconds have elapsed. Every
// program worker pool is pinned at Workers: 1. The first pass's answers
// are checked with an engine other than the one that produced them;
// later passes must reproduce them exactly.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 passes alternate untraced and
// traced, the traced ones record spans around every layer call, and the
// JSON carries the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"orap/internal/rng"
)

// outcome is what a job's run produced, reduced to what the benchmark
// compares and aggregates.
type outcome struct {
	// digest renders the job's verdicts and counts; every pass, traced or
	// not, must reproduce the first pass's digest exactly.
	digest string
	// decided out of budgeted verdicts reached a definite answer.
	decided, budgeted int
	// detail is what replay and check need; runPass drops it once the
	// item is done, so no pass holds more than one item's detail.
	detail interface{}
}

// job is one item of a workload.
type job interface {
	// setup builds the item's inputs from its seed.
	setup(tr *tracer) error
	// run performs the measured job; it must not change the inputs.
	run(tr *tracer) (outcome, error)
	// replay makes the traced run's extra calls that split a layer's
	// time. It runs after the item, outside its latency, and fails when
	// the calls do not reproduce the item's answer.
	replay(tr *tracer, out outcome) error
	// check verifies the first pass's answer with an engine other than
	// the one that produced it. It runs right after the item, outside its
	// latency. Tags name the kinds of expected outcome the answer met, or
	// the checks it got; the info line counts them.
	check(out outcome) (tags []string, err error)
}

// itemSpec names one item of the seeded list and builds its job.
type itemSpec struct {
	id   string
	make func() job
}

type workload struct {
	name string
	// plan draws the item list; tiny selects the test-size list.
	plan func(seed uint64, tiny bool) []itemSpec
}

var workloads = []workload{
	{"testability", planTestability},
	{"attack", planAttack},
	{"certify", planCertify},
	{"overhead", planOverhead},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// shuffled puts the items in the order the seed fixes.
func shuffled(seed uint64, wl string, specs []itemSpec) []itemSpec {
	r := rng.NewNamed(seed, "perfbench/order/"+wl)
	out := make([]itemSpec, len(specs))
	for i, p := range r.Perm(len(specs)) {
		out[i] = specs[p]
	}
	return out
}

// itemSeed derives an item's seed from the run seed and its slot.
func itemSeed(seed uint64, wl string, slot int) uint64 {
	return rng.NewNamed(seed, fmt.Sprintf("perfbench/%s/%d", wl, slot)).Uint64()
}

// gcPercent pins the collector's pacing (GOGC) whatever the environment
// says. At the default of 100 the certify audits collect about forty
// times a second, and the collector's CPU, about a fifth of run_s, needs
// the second core: on a 2-vCPU VM, a CPU-bound process on that core
// stretched certify's run_s by 15% (mean of three pairs of runs); at 400,
// by 4%. Fewer collections make peak_live_mb a maximum over fewer
// samples, so it spreads more where a pass collects only a few times.
const gcPercent = 400

// Set-up runs at least setupReps times, and more until it has taken
// setupMinSeconds in all (at most setupMaxReps times), so a workload
// whose set-up takes a few tens of milliseconds still reports the median
// of many; at least minPasses passes are measured however short
// --seconds is.
const (
	setupReps       = 9
	setupMinSeconds = 1.0
	setupMaxReps    = 40
	minPasses       = 2
)

type options struct {
	seconds         float64
	trace           bool
	setupReps       int
	setupMinSeconds float64
	minPasses       int
}

// passStats are the whole-pass measurements.
type passStats struct {
	run, cpu, allocMB, peakLiveMB float64
	lat                           []float64
	traced                        bool
}

// report is everything one benchmark run measured.
type report struct {
	items     []string
	setup     []float64
	passes    []passStats
	outcomes  []outcome
	attempted int
	failures  []string
	tags      map[string]int
	tr        *tracer
}

func measure(specs []itemSpec, opts options) (*report, error) {
	rep := &report{}
	for _, s := range specs {
		rep.items = append(rep.items, s.id)
	}
	if opts.trace {
		rep.tr = newTracer()
	}
	var jobs []job
	total := 0.0
	for r := 0; r < opts.setupReps || (total < opts.setupMinSeconds && r < setupMaxReps); r++ {
		jobs = make([]job, len(specs))
		runtime.GC()
		start := time.Now()
		for i, s := range specs {
			rep.tr.at(-1-r, i)
			h := rep.tr.begin(spanSetup)
			jobs[i] = s.make()
			err := jobs[i].setup(rep.tr)
			rep.tr.end(h)
			if err != nil {
				return nil, fmt.Errorf("set-up of %s: %w", s.id, err)
			}
		}
		rep.setup = append(rep.setup, time.Since(start).Seconds())
		total += rep.setup[r]
	}

	rep.tags = make(map[string]int)
	start := time.Now()
	for p := 0; ; p++ {
		traced := opts.trace && p%2 == 1
		var tr *tracer
		if traced {
			tr = rep.tr
		}
		ps, outs := runPass(jobs, tr, p, p == 0)
		ps.traced = traced
		rep.passes = append(rep.passes, ps)
		rep.attempted += len(jobs)
		for i, o := range outs {
			switch {
			case o.err != nil:
				rep.failures = append(rep.failures, fmt.Sprintf("pass %d %s: %v", p, specs[i].id, o.err))
			case o.checkErr != nil:
				rep.failures = append(rep.failures, fmt.Sprintf("check %s: %v", specs[i].id, o.checkErr))
			case p > 0 && o.digest != rep.outcomes[i].digest:
				rep.failures = append(rep.failures, fmt.Sprintf("pass %d %s: answer %q differs from first pass %q",
					p, specs[i].id, o.digest, rep.outcomes[i].digest))
			}
			for _, t := range o.tags {
				rep.tags[t]++
			}
		}
		if p == 0 {
			rep.outcomes = make([]outcome, len(outs))
			for i, o := range outs {
				rep.outcomes[i] = o.outcome
			}
		}
		enough := time.Since(start).Seconds() >= opts.seconds && p+1 >= opts.minPasses
		if enough && (!opts.trace || p >= 1) {
			break
		}
	}
	return rep, nil
}

type jobResult struct {
	outcome
	err      error
	tags     []string
	checkErr error
}

// runPass runs every job once, in order, and measures the pass. With
// check set (the first pass) each answer is checked right after its item;
// the check's CPU time and allocation are taken out of the pass's.
//
// peakLiveMB is the largest live heap marked by a GC cycle that ended
// while an item ran, or by the collection that starts the pass, so it
// covers the item inputs plus one item's working set and never the
// check's or the replay's.
func runPass(jobs []job, tr *tracer, pass int, check bool) (passStats, []jobResult) {
	runtime.GC()
	ps := passStats{lat: make([]float64, len(jobs))}
	outs := make([]jobResult, len(jobs))
	var checkCPU, checkAlloc float64
	cycles, live := gcState()
	ps.peakLiveMB = live
	cpu0, alloc0 := cpuSeconds(), heapAllocs()
	for i, j := range jobs {
		tr.at(pass, i)
		t0 := time.Now()
		h := tr.begin(spanItem)
		out, err := j.run(tr)
		tr.end(h)
		ps.lat[i] = time.Since(t0).Seconds()
		ps.run += ps.lat[i]
		if c, live := gcState(); c != cycles && live > ps.peakLiveMB {
			ps.peakLiveMB = live
		}
		if err == nil && tr != nil {
			h := tr.begin(spanReplay)
			if rerr := j.replay(tr, out); rerr != nil {
				err = fmt.Errorf("traced replay: %w", rerr)
			}
			tr.end(h)
		}
		res := jobResult{outcome: out, err: err}
		if err == nil && check {
			c0, a0 := cpuSeconds(), heapAllocs()
			res.tags, res.checkErr = j.check(out)
			checkCPU += cpuSeconds() - c0
			checkAlloc += float64(heapAllocs() - a0)
		}
		res.detail = nil
		outs[i] = res
		cycles, _ = gcState()
	}
	ps.cpu = cpuSeconds() - cpu0 - checkCPU
	ps.allocMB = (float64(heapAllocs()-alloc0) - checkAlloc) / (1 << 20)
	return ps, outs
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

func heapAllocs() uint64 {
	metrics.Read(memSamples[:1])
	return memSamples[0].Value.Uint64()
}

// gcState returns the number of completed GC cycles and the heap the
// most recent one marked live, in MB.
func gcState() (cycles uint64, liveMB float64) {
	metrics.Read(memSamples[1:])
	return memSamples[1].Value.Uint64(), float64(memSamples[2].Value.Uint64()) / (1 << 20)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics from the untraced passes.
func endToEnd(rep *report) (map[string]metric, string) {
	var run, cpu, alloc, peak []float64
	var lats [][]float64
	for _, p := range rep.passes {
		if p.traced {
			continue
		}
		run = append(run, p.run)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.allocMB)
		peak = append(peak, p.peakLiveMB)
		lats = append(lats, p.lat)
	}
	item := make([]float64, len(rep.items))
	for i := range item {
		var xs []float64
		for _, l := range lats {
			xs = append(xs, l[i])
		}
		item[i] = median(xs)
	}
	q, beyond := tailQuantile(len(item))
	decided, budgeted := 0, 0
	for _, o := range rep.outcomes {
		decided += o.decided
		budgeted += o.budgeted
	}
	frac := 1.0
	if budgeted > 0 {
		frac = float64(decided) / float64(budgeted)
	}
	m := map[string]metric{
		"setup_s":      {median(rep.setup), "s"},
		"run_s":        {median(run), "s"},
		"cpu_s":        {median(cpu), "s"},
		"item_p50_s":   {quantile(item, 0.5), "s"},
		"item_tail_s":  {quantile(item, q), "s"},
		"alloc_mb":     {median(alloc), "MB"},
		"peak_live_mb": {median(peak), "MB"},
		"decided_frac": {frac, "frac"},
	}
	note := fmt.Sprintf("items=%d passes=%d pass_run_s=%.3f pass_peak_live_mb=%.1f setup_reps_s=%.3f item_tail_s=p%.1f (%d items beyond) decided=%d/%d",
		len(item), len(run), run, peak, rep.setup, 100*q, beyond, decided, budgeted)
	return m, note
}

// tailQuantile is the highest quantile with at least ten items beyond it
// (the median when there are fewer than twenty items).
func tailQuantile(n int) (q float64, beyond int) {
	if n < 20 {
		return 0.5, n / 2
	}
	return float64(n-10-1) / float64(n-1), 10
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: testability, attack, certify or overhead")
		seed    = flag.Uint64("seed", 2020, "seed the item list is drawn from")
		seconds = flag.Float64("seconds", 20, "measure passes until this many seconds have elapsed")
		trace   = flag.Int("trace", 0, "1: alternate untraced and traced passes and report per-layer metrics")
	)
	flag.Parse()
	wl, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	debug.SetGCPercent(gcPercent)
	opts := options{seconds: *seconds, trace: *trace == 1, setupReps: setupReps, setupMinSeconds: setupMinSeconds, minPasses: minPasses}
	specs := wl.plan(*seed, false)
	rep, err := measure(specs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var ms map[string]metric
	var note string
	if opts.trace {
		ms, note = perLayer(rep)
		path, err := rep.tr.write(".bench_build/traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		note += " trace_file=" + path
	} else {
		ms, note = endToEnd(rep)
	}
	var tags []string
	for t, n := range rep.tags {
		tags = append(tags, fmt.Sprintf("%s=%d", t, n))
	}
	sort.Strings(tags)
	if len(tags) > 0 {
		note += " checks:" + strings.Join(tags, ",")
	}
	for _, f := range rep.failures {
		fmt.Println("FAIL", f)
	}
	fmt.Printf("perfbench %s seed=%d %s\n", wl.name, *seed, note)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, len(rep.failures), ms}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
