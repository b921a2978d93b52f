package main

import (
	"fmt"
	"math/bits"

	"orap/internal/atpg"
	"orap/internal/benchgen"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/scan"
)

// Table II flow parameters: a short random phase leaves many faults to
// the SAT generator, and a low backtrack limit bounds every abort.
const (
	testRandomBlocks   = 4
	testConflictBudget = 300
	// testExhaustiveVars bounds the input support on which an undetected
	// fault is cross-checked by exhaustive simulation.
	testExhaustiveVars = 12
)

// testStrata are the (profile, scale) cells of the testability list; each
// pass draws every cell testCopies times, half original and half
// OraP-protected.
var testStrata = []struct {
	name  string
	scale float64
}{
	{"s38417", 0.045}, {"s38584", 0.03}, {"b17", 0.003}, {"b20", 0.004},
	{"b21", 0.004}, {"b22", 0.003}, {"b18", 0.0008}, {"b19", 0.0004},
}

const testCopies = 36

func planTestability(seed uint64, tiny bool) []itemSpec {
	copies, strata := testCopies, testStrata
	if tiny {
		copies, strata = 2, testStrata[:3]
	}
	var specs []itemSpec
	for si, st := range strata {
		for c := 0; c < copies; c++ {
			slot := si*copies + c
			j := &testJob{prof: scaled(st.name, st.scale), protected: c%2 == 1, seed: itemSeed(seed, "testability", slot)}
			ver := "orig"
			if j.protected {
				ver = "prot"
			}
			id := fmt.Sprintf("%s/%s/%016x", j.prof.Name, ver, j.seed)
			specs = append(specs, itemSpec{id: id, make: func() job { c := *j; return &c }})
		}
	}
	return shuffled(seed, "testability", specs)
}

// testJob is one circuit version through Table II's flow: random-pattern
// fault simulation, then SAT-based ATPG on the remaining faults.
type testJob struct {
	prof      benchgen.Profile
	protected bool
	seed      uint64
	circuit   *netlist.Circuit
}

// testDetail keeps what the check needs from the run.
type testDetail struct {
	fsim      *faultsim.Simulator
	remaining []faultsim.Fault
	randomDet int
	sum       atpg.Summary
}

func (j *testJob) setup(tr *tracer) error {
	c, err := generate(tr, j.prof, j.seed)
	if err != nil {
		return err
	}
	j.circuit = c
	if !j.protected {
		return nil
	}
	// The protected version is the weighted-locked core of an OraP chip;
	// its key inputs sit in the scan chains, so ATPG controls them.
	l, err := lockWith(tr, "weighted", c, j.prof.LFSRSize, j.prof.CtrlInputs, 0, j.seed)
	if err != nil {
		return err
	}
	h := tr.begin("orap.protect")
	_, err = orap.Protect(l.Circuit, l.Key, j.prof.Pins, j.prof.PinOuts, scan.OraPBasic, orap.Options{Rand: rng.NewNamed(j.seed, "perfbench/orap")})
	tr.end(h)
	if err != nil {
		return err
	}
	j.circuit = l.Circuit
	return nil
}

func (j *testJob) run(tr *tracer) (outcome, error) {
	h := tr.begin("faultsim.random")
	fsim, err := faultsim.New(j.circuit)
	if err != nil {
		tr.end(h)
		return outcome{}, err
	}
	fsim.Workers = 1
	rr := fsim.RunRandom(faultsim.CollapseFaults(j.circuit), testRandomBlocks, rng.NewNamed(j.seed, "perfbench/random"))
	tr.end(h)
	tr.count("faultsim.random_dropped", float64(rr.Detected))

	var sum atpg.Summary
	if tr == nil {
		sum, err = atpg.Run(j.circuit, fsim, rr, atpg.Options{ConflictBudget: testConflictBudget})
	} else {
		sum, err = replayATPG(tr, fsim, rr)
	}
	if err != nil {
		return outcome{}, err
	}
	targeted := len(rr.Remaining)
	out := outcome{
		digest: fmt.Sprintf("T=%d D=%d R=%d A=%d P=%d pat=%s conf=%d prop=%d",
			sum.Total, sum.Detected, sum.Redundant, sum.Aborted, len(sum.Patterns),
			digest(sum.Patterns), sum.Solver.Conflicts, sum.Solver.Propagations),
		decided:  targeted - sum.Aborted,
		budgeted: targeted,
		detail:   &testDetail{fsim: fsim, remaining: rr.Remaining, randomDet: rr.Detected, sum: sum},
	}
	return out, nil
}

// replayATPG is atpg.Run's loop, rebuilt from GenerateProgram and
// DetectsWithPattern so each fault class and the fault dropping get their
// own spans. Its Summary must equal atpg.Run's exactly; the untraced
// passes' digests enforce that.
func replayATPG(tr *tracer, fsim *faultsim.Simulator, rr faultsim.Result) (atpg.Summary, error) {
	prog := fsim.Program()
	opts := atpg.Options{ConflictBudget: testConflictBudget}
	sum := atpg.Summary{Total: rr.Total, Detected: rr.Detected}
	live := append([]faultsim.Fault(nil), rr.Remaining...)
	for len(live) > 0 {
		f := live[0]
		live = live[1:]
		h := tr.begin("atpg.generate")
		out, err := atpg.GenerateProgram(prog, f, opts)
		if err != nil {
			tr.end(h)
			return sum, err
		}
		tr.rename(h, "atpg."+out.Class.String())
		tr.end(h)
		tr.count("atpg.targeted", 1)
		addSolver(tr, out.Solver)
		sum.Solver.Add(out.Solver)
		switch out.Class {
		case atpg.Redundant:
			sum.Redundant++
			tr.count("atpg.redundant", 1)
		case atpg.Aborted:
			sum.Aborted++
			tr.count("atpg.aborted", 1)
		case atpg.Detected:
			sum.Detected++
			sum.Patterns = append(sum.Patterns, out.Pattern)
			h := tr.begin("faultsim.drop")
			kept := live[:0]
			for _, g := range live {
				hit, err := fsim.DetectsWithPattern(g, out.Pattern)
				if err != nil {
					tr.end(h)
					return sum, err
				}
				tr.count("faultsim.drop_calls", 1)
				if hit {
					sum.Detected++
					tr.count("faultsim.drop_hits", 1)
				} else {
					kept = append(kept, g)
				}
			}
			live = kept
			tr.end(h)
		}
	}
	return sum, nil
}

// addSolver records SAT effort counters.
func addSolver(tr *tracer, s sat.Stats) {
	tr.count("sat.conflicts", float64(s.Conflicts))
	tr.count("sat.propagations", float64(s.Propagations))
	tr.count("sat.learnt", float64(s.Learnt))
	tr.count("sat.reductions", float64(s.Reductions))
}

func (j *testJob) replay(tr *tracer, out outcome) error {
	return replayCompile(tr, j.circuit)
}

// replayCompile times one ir.Compile of an item's circuit.
func replayCompile(tr *tracer, c *netlist.Circuit) error {
	h := tr.begin("ir.compile")
	prog, err := ir.Compile(c)
	tr.end(h)
	if err != nil {
		return err
	}
	tr.count("ir.nodes", float64(prog.NumNodes()))
	return nil
}

// check re-detects every ATPG pattern with the benchmark's own fault
// simulator and with faultsim.DetectsWithPattern, checks the detected
// count against the pattern set, and cross-checks undetected faults on
// small input supports by exhaustive simulation: such a fault may be
// detectable only if ATPG aborted it, never if it proved it redundant.
func (j *testJob) check(out outcome) ([]string, error) {
	d := out.detail.(*testDetail)
	prog := d.fsim.Program()
	ws := newWordSim(prog)
	in := make([]uint64, len(prog.Inputs))
	pats := d.sum.Patterns
	detected := make([]bool, len(d.remaining))
	hitBy := make([]int, len(pats)) // a remaining fault each pattern detects
	for i := range hitBy {
		hitBy[i] = -1
	}
	for lo := 0; lo < len(pats); lo += 64 {
		hi := min(lo+64, len(pats))
		packPatterns(in, pats, lo, hi)
		ws.load(in, hi-lo)
		for fi, f := range d.remaining {
			m := ws.detects(f.Node, f.Pin, f.SA1)
			if m == 0 {
				continue
			}
			detected[fi] = true
			for ; m != 0; m &= m - 1 {
				p := lo + bits.TrailingZeros64(m)
				if hitBy[p] < 0 {
					hitBy[p] = fi
				}
			}
		}
	}
	for p, fi := range hitBy {
		if fi < 0 {
			return nil, fmt.Errorf("ATPG pattern %d detects no targeted fault", p)
		}
		hit, err := d.fsim.DetectsWithPattern(d.remaining[fi], pats[p])
		if err != nil {
			return nil, err
		}
		if !hit {
			return nil, fmt.Errorf("faultsim does not confirm pattern %d on fault %v", p, d.remaining[fi])
		}
	}
	nDet := 0
	for _, v := range detected {
		if v {
			nDet++
		}
	}
	atpgDet := d.sum.Detected - d.randomDet
	if nDet < atpgDet || nDet-atpgDet > d.sum.Aborted {
		return nil, fmt.Errorf("patterns detect %d targeted faults, ATPG counted %d detected and %d aborted", nDet, atpgDet, d.sum.Aborted)
	}
	exhaustiveHits := 0
	for fi, f := range d.remaining {
		if detected[fi] {
			continue
		}
		if hit, ok := exhaustiveDetect(prog, ws, in, f); ok && hit {
			exhaustiveHits++
		}
	}
	if exhaustiveHits > d.sum.Aborted {
		return nil, fmt.Errorf("%d undetected faults are detectable by exhaustive simulation, more than the %d aborted", exhaustiveHits, d.sum.Aborted)
	}
	return nil, nil
}

// exhaustiveDetect enumerates the input support of the fault's observable
// outputs; ok is false when the support is too large.
func exhaustiveDetect(prog *ir.Program, ws *wordSim, in []uint64, f faultsim.Fault) (hit, ok bool) {
	infl := prog.TransitiveFanout(f.Node)
	var roots []int
	for _, o := range prog.POs {
		if infl[o] {
			roots = append(roots, int(o))
		}
	}
	if len(roots) == 0 {
		return false, true
	}
	supp := prog.TransitiveFanin(roots...)
	var vars []int
	for i, id := range prog.Inputs {
		if supp[id] {
			vars = append(vars, i)
		}
	}
	if len(vars) > testExhaustiveVars {
		return false, false
	}
	words, lanes := enumLanes(len(vars))
	for b := 0; b < words; b++ {
		exhaustiveWords(in, vars, b)
		ws.load(in, lanes)
		if ws.detects(f.Node, f.Pin, f.SA1) != 0 {
			return true, true
		}
	}
	return false, true
}
