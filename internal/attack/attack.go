// Package attack implements the oracle-guided logic-locking attacks the
// OraP paper defends against:
//
//   - the SAT attack of Subramanyan, Ray and Malik (HOST'15),
//   - Double DIP (Shen & Zhou, GLSVLSI'17), a strengthened DIP search,
//   - AppSAT (Shamsi et al., HOST'17), approximate deobfuscation,
//   - the hill-climbing attack (Plaza & Markov, TC'15), and
//   - key sensitization (Yasin et al., TCAD'16).
//
// Every attack sees the locked netlist plus a black-box oracle.Oracle.
// Against an unprotected chip (oracle.Comb) they recover the key or an
// equivalent one; against the OraP-gated oracle the observations describe
// the locked circuit, so the attacks converge to keys that fail functional
// equivalence — exactly the behaviour the paper's Section II-A argues.
package attack

import (
	"fmt"
	"math/bits"

	"orap/internal/cnf"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/sim"
)

// Result reports an attack's outcome.
type Result struct {
	// Key is the recovered key (nil when the attack failed to produce one).
	Key []bool
	// Iterations counts attack rounds (DIPs for SAT-family attacks,
	// restarts/improvement steps for hill climbing).
	Iterations int
	// OracleQueries counts oracle accesses consumed by the attack.
	OracleQueries int
	// Channel holds oracle-channel telemetry (unique patterns, cache
	// hits, scan cycles) when the attack ran against an oracle.Session;
	// zero otherwise.
	Channel oracle.ChannelStats
	// SolverStats aggregates SAT effort, when a solver was involved.
	SolverStats sat.Stats
	// Converged reports whether the attack terminated by its own
	// criterion (e.g. miter UNSAT) rather than a budget.
	Converged bool
}

// channelStats extracts channel telemetry from oracles that keep it
// (oracle.Session, or anything exposing Stats()).
func channelStats(o oracle.Oracle) oracle.ChannelStats {
	if s, ok := o.(interface{ Stats() oracle.ChannelStats }); ok {
		return s.Stats()
	}
	return oracle.ChannelStats{}
}

// finish stamps the oracle-derived fields of a result on the way out.
func (res *Result) finish(o oracle.Oracle) {
	res.OracleQueries = o.Queries()
	res.Channel = channelStats(o)
}

// Budgets bounds attack effort so experiments terminate even when a
// defense makes an attack diverge.
type Budgets struct {
	// MaxIterations bounds attack rounds (0 = default).
	MaxIterations int
	// MaxConflicts bounds total SAT conflicts (0 = unlimited).
	MaxConflicts int64
}

func (b Budgets) iterations(def int) int {
	if b.MaxIterations > 0 {
		return b.MaxIterations
	}
	return def
}

// ErrIterationBudget reports that an attack hit its round limit without
// converging.
var ErrIterationBudget = fmt.Errorf("attack: iteration budget exhausted")

// VerifyKey checks with SAT whether the locked circuit under the candidate
// key is functionally equivalent to the reference (original) circuit: it
// returns true when no input distinguishes them. This is the experiment
// harness's success criterion ("the correct or an equivalent key").
func VerifyKey(locked, reference *netlist.Circuit, key []bool) (bool, error) {
	if len(key) != locked.NumKeys() {
		return false, fmt.Errorf("attack: key width %d != %d", len(key), locked.NumKeys())
	}
	if reference.NumKeys() != 0 {
		return false, fmt.Errorf("attack: reference circuit %q has key inputs", reference.Name)
	}
	if locked.NumInputs() != reference.NumInputs() || locked.NumOutputs() != reference.NumOutputs() {
		return false, fmt.Errorf("attack: locked/reference shapes differ")
	}
	lp, err := ir.Compile(locked)
	if err != nil {
		return false, err
	}
	rp, err := ir.Compile(reference)
	if err != nil {
		return false, err
	}
	s := sat.New()
	li, err := cnf.EncodeProgram(s, lp, cnf.Options{})
	if err != nil {
		return false, err
	}
	if err := cnf.ConstrainBits(s, li.KeyVars, key); err != nil {
		return false, err
	}
	ri, err := cnf.EncodeProgram(s, rp, cnf.Options{PIVars: li.PIVars})
	if err != nil {
		return false, err
	}
	// Outputs must be able to differ for NON-equivalence.
	diffs := make([]sat.Lit, 0, len(li.POVars))
	for i := range li.POVars {
		d := sat.MkLit(s.NewVar(), false)
		cnf.EmitXor2(s, d, sat.MkLit(li.POVars[i], false), sat.MkLit(ri.POVars[i], false))
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...)
	satisfiable, err := s.Solve()
	if err != nil {
		return false, err
	}
	return !satisfiable, nil
}

// SampleDisagreement estimates the fraction of random inputs on which the
// locked circuit under key disagrees (in at least one output bit) with the
// oracle; used by AppSAT's settlement test and by reporting. Patterns go
// through the oracle's word channel in batches of up to 64, and the
// candidate key evaluates word-parallel over the same batches.
func SampleDisagreement(locked *netlist.Circuit, key []bool, o oracle.Oracle, samples int, r *rng.Stream) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("attack: non-positive sample count %d", samples)
	}
	p, err := sim.NewParallel(locked, 1)
	if err != nil {
		return 0, err
	}
	defer p.Release()
	if err := p.SetKey(key); err != nil {
		return 0, err
	}
	prog := p.Program()
	bad := 0
	x := make([]bool, locked.NumInputs())
	in := make([]uint64, locked.NumInputs())
	for done := 0; done < samples; {
		n := samples - done
		if n > 64 {
			n = 64
		}
		for i := range in {
			in[i] = 0
		}
		// One r.Bits draw per pattern, in pattern order, exactly as the
		// scalar loop drew them — fixed-seed results stay bit-identical.
		for pat := 0; pat < n; pat++ {
			r.Bits(x)
			oracle.PackPattern(in, pat, x)
		}
		want, err := oracle.QueryWords(o, in, n)
		if err != nil {
			return 0, err
		}
		for i, id := range prog.PIs {
			p.SetInput(int(id), in[i:i+1])
		}
		p.Run()
		var diff uint64
		for j, id := range prog.POs {
			diff |= want[j] ^ p.Value(int(id))[0]
		}
		diff &= oracle.LaneMask(n)
		bad += bits.OnesCount64(diff)
		done += n
	}
	return float64(bad) / float64(samples), nil
}
