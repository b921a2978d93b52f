// Package atpg generates stuck-at-fault test patterns, the role Atalanta
// plays in the paper's Table II flow.
//
// The generator is SAT-based rather than PODEM-based: for every target
// fault it encodes the good and faulty circuits (restricted to the
// fault's cone of influence) sharing their inputs, asserts that some
// reachable output differs, and asks the CDCL solver for a pattern. The
// classification matches the classic ATPG vocabulary exactly:
//
//   - SAT        → a test pattern (returned and fault-simulated),
//   - UNSAT      → the fault is provably redundant,
//   - budget hit → the fault is aborted.
//
// Key inputs are treated as ordinary, freely controllable inputs: under
// OraP the key register is wired into the scan chains, so "the tool was
// allowed to set any value to the key inputs" (Table II's setup).
//
// A campaign compiles the circuit once (or reuses the fault simulator's
// compiled program) and encodes every fault cone from the flat IR view;
// the Tseitin clauses themselves come from cnf.EmitGate, so the ATPG and
// attack SAT paths share one gate encoding. Every fault is solved on a
// pooled solver that is Reset in between, so faults are independent
// searches that reuse one allocation.
package atpg

import (
	"fmt"
	"sync"

	"orap/internal/cnf"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/sat"
)

// Class is the ATPG outcome for a single fault.
type Class int

// Fault classes.
const (
	// Detected faults have a generated (or fault-simulated) pattern.
	Detected Class = iota
	// Redundant faults are proven untestable.
	Redundant
	// Aborted faults exceeded the effort budget undecided.
	Aborted
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Options bounds ATPG effort.
type Options struct {
	// ConflictBudget bounds SAT conflicts per fault (the "backtrack
	// limit"); 0 means 20000, mirroring a high-effort Atalanta run.
	ConflictBudget int64
}

func (o Options) budget() int64 {
	if o.ConflictBudget > 0 {
		return o.ConflictBudget
	}
	return 20000
}

// Outcome reports one fault's result.
type Outcome struct {
	Fault   faultsim.Fault
	Class   Class
	Pattern []bool // inputs then keys; nil unless Detected by this call
	// Solver carries the per-fault SAT effort (conflicts, propagations,
	// learned-clause figures).
	Solver sat.Stats
}

// GenerateProgram targets one fault of an already-compiled circuit and
// returns its outcome. It is safe for concurrent use: each call borrows
// a solver and cone scratch from a pool and resets them, so a campaign
// allocates its SAT memory once instead of once per fault.
func GenerateProgram(prog *ir.Program, f faultsim.Fault, opts Options) (Outcome, error) {
	sc := scratchPool.Get().(*coneScratch)
	defer scratchPool.Put(sc)
	return sc.generate(prog, f, opts)
}

// scratchPool holds the per-goroutine encoding state of GenerateProgram.
var scratchPool = sync.Pool{New: func() any { return newConeScratch() }}

func newConeScratch() *coneScratch { return &coneScratch{s: sat.New()} }

// generate is GenerateProgram on this scratch.
func (sc *coneScratch) generate(prog *ir.Program, f faultsim.Fault, opts Options) (Outcome, error) {
	if f.Node < 0 || f.Node >= prog.NumNodes() {
		return Outcome{}, fmt.Errorf("atpg: fault node %d out of range", f.Node)
	}
	s := sc.s
	s.Reset()
	s.MaxConflicts = opts.budget()

	if err := sc.encode(prog, f); err != nil {
		return Outcome{}, err
	}
	ok, err := s.Solve()
	if err == sat.ErrBudget {
		return Outcome{Fault: f, Class: Aborted, Solver: s.Stats()}, nil
	}
	if err != nil {
		return Outcome{}, err
	}
	if !ok {
		return Outcome{Fault: f, Class: Redundant, Solver: s.Stats()}, nil
	}
	pattern := make([]bool, len(prog.Inputs))
	for i, id := range prog.Inputs {
		// Inputs outside the cone stay false; any value works.
		if sc.need[id] == sc.epoch {
			pattern[i] = s.Value(sc.good[id]) == sat.True
		}
	}
	return Outcome{Fault: f, Class: Detected, Pattern: pattern, Solver: s.Stats()}, nil
}

// coneScratch is the reusable state of one fault encoding: a solver and
// epoch-stamped per-node arrays. A node belongs to the current fault's
// sets only while its stamp equals epoch, so starting the next fault
// costs one increment instead of clearing O(nodes) memory.
type coneScratch struct {
	s     *sat.Solver
	epoch uint32
	infl  []uint32  // infl[id] == epoch: id is in the fault's fanout cone
	need  []uint32  // need[id] == epoch: id is encoded (cone plus support)
	good  []sat.Var // good-circuit variable, valid where need is stamped
	fault []sat.Var // faulty-circuit variable, valid where infl is stamped
	cone  []int32
	stack []int32
	fanin []sat.Lit
	diffs []sat.Lit
}

// begin opens a new epoch sized for an n-node program.
func (sc *coneScratch) begin(n int) {
	if len(sc.infl) < n {
		sc.infl = make([]uint32, n)
		sc.need = make([]uint32, n)
		sc.good = make([]sat.Var, n)
		sc.fault = make([]sat.Var, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: no stale stamp may match again
		clear(sc.infl)
		clear(sc.need)
		sc.epoch = 1
	}
}

// faulty returns the faulty-circuit variable of an encoded node: its own
// variable inside the fanout cone, the shared good one outside it.
func (sc *coneScratch) faulty(id int32) sat.Var {
	if sc.infl[id] == sc.epoch {
		return sc.fault[id]
	}
	return sc.good[id]
}

// encode adds CNF for the good and faulty circuit restricted to the union
// of the fault's output cone and that cone's input support, sharing input
// variables, and asserts that an observed output differs.
func (sc *coneScratch) encode(prog *ir.Program, f faultsim.Fault) error {
	s := sc.s
	sc.begin(prog.NumNodes())
	ep := sc.epoch
	// Influence region: transitive fanout of the fault node; support:
	// transitive fanin of that region.
	cone := append(sc.cone[:0], int32(f.Node))
	sc.infl[f.Node], sc.need[f.Node] = ep, ep
	for i := 0; i < len(cone); i++ {
		for _, fo := range prog.FanoutSpan(int(cone[i])) {
			if sc.infl[fo] != ep {
				sc.infl[fo], sc.need[fo] = ep, ep
				cone = append(cone, fo)
			}
		}
	}
	stack := append(sc.stack[:0], cone...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range prog.FaninSpan(int(id)) {
			if sc.need[fi] != ep {
				sc.need[fi] = ep
				stack = append(stack, fi)
			}
		}
	}
	sc.cone, sc.stack = cone, stack

	for _, id := range prog.Order {
		if sc.need[id] != ep {
			continue
		}
		op := prog.Ops[id]
		fanin := prog.FaninSpan(int(id))
		// Good copy.
		gv := s.NewVar()
		sc.good[id] = gv
		if op != ir.OpInput {
			fan := sc.fanin[:0]
			for _, fi := range fanin {
				fan = append(fan, sat.MkLit(sc.good[fi], false))
			}
			sc.fanin = fan
			if err := cnf.EmitGate(s, op, sat.MkLit(gv, false), fan); err != nil {
				return err
			}
		}
		// Faulty copy: nodes outside the influenced region share the
		// good variable; influenced nodes get their own, with the fault
		// injected at the fault site.
		if sc.infl[id] != ep {
			continue
		}
		fv := s.NewVar()
		sc.fault[id] = fv
		switch {
		case int(id) == f.Node && f.Pin < 0:
			// Output fault: the node is a constant.
			s.AddClause(sat.MkLit(fv, !f.SA1))
		case op == ir.OpInput:
			// An influenced input can only be the fault node itself
			// (inputs have no fanin); constrain equal to good.
			s.AddClause(sat.MkLit(fv, true), sat.MkLit(gv, false))
			s.AddClause(sat.MkLit(fv, false), sat.MkLit(gv, true))
		default:
			fan := sc.fanin[:0]
			for _, fi := range fanin {
				fan = append(fan, sat.MkLit(sc.faulty(fi), false))
			}
			sc.fanin = fan
			if int(id) == f.Node && f.Pin >= 0 {
				// Input-pin fault: replace that pin with a constant.
				cv := s.NewVar()
				s.AddClause(sat.MkLit(cv, !f.SA1))
				fan[f.Pin] = sat.MkLit(cv, false)
			}
			if err := cnf.EmitGate(s, op, sat.MkLit(fv, false), fan); err != nil {
				return err
			}
		}
	}

	// Some observed output in the influenced region must differ.
	diffs := sc.diffs[:0]
	for _, o := range prog.POs {
		if sc.infl[o] != ep {
			continue
		}
		d := sat.MkLit(s.NewVar(), false)
		cnf.EmitXor2(s, d, sat.MkLit(sc.good[o], false), sat.MkLit(sc.fault[o], false))
		diffs = append(diffs, d)
	}
	sc.diffs = diffs
	// An empty clause (no output in the cone) makes the fault
	// structurally redundant: its effect cannot reach any output.
	s.AddClause(diffs...)
	return nil
}

// Summary aggregates a full ATPG campaign.
type Summary struct {
	Total     int
	Detected  int
	Redundant int
	Aborted   int
	// Patterns holds the generated test patterns (deduplicated runs may
	// hold fewer than Detected).
	Patterns [][]bool
	// Solver aggregates the SAT effort across every targeted fault.
	Solver sat.Stats
}

// Coverage returns the stuck-at fault coverage in percent: detected over
// total, the definition Table II reports.
func (s Summary) Coverage() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Detected) / float64(s.Total)
}

// RedundantPlusAborted returns the paper's "# Red.+Abrt faults" column.
func (s Summary) RedundantPlusAborted() int { return s.Redundant + s.Aborted }

// Run performs the full Table II flow on a circuit: collapse the fault
// list, drop the easy faults with `randomBlocks` blocks of random-pattern
// fault simulation (the HOPE step), then target every remaining fault
// with the SAT generator. Each generated pattern is fault-simulated with
// dropping so later faults skip generation when already covered. The
// fault simulator's compiled program is reused for every cone encoding,
// so the circuit is never recompiled per fault.
func Run(c *netlist.Circuit, fsim *faultsim.Simulator, randomResult faultsim.Result, opts Options) (Summary, error) {
	prog := fsim.Program()
	sum := Summary{Total: randomResult.Total, Detected: randomResult.Detected}
	live := append([]faultsim.Fault(nil), randomResult.Remaining...)
	for len(live) > 0 {
		f := live[0]
		live = live[1:]
		out, err := GenerateProgram(prog, f, opts)
		if err != nil {
			return sum, err
		}
		sum.Solver.Add(out.Solver)
		switch out.Class {
		case Redundant:
			sum.Redundant++
		case Aborted:
			sum.Aborted++
		case Detected:
			sum.Detected++
			sum.Patterns = append(sum.Patterns, out.Pattern)
			// Drop any other live fault the new pattern detects.
			kept := live[:0]
			for _, g := range live {
				hit, err := fsim.DetectsWithPattern(g, out.Pattern)
				if err != nil {
					return sum, err
				}
				if hit {
					sum.Detected++
				} else {
					kept = append(kept, g)
				}
			}
			live = kept
		}
	}
	return sum, nil
}
