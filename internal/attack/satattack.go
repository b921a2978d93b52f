package attack

import (
	"fmt"

	"orap/internal/cnf"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/sat"
)

// SAT runs the oracle-guided SAT attack: repeatedly solve the miter for a
// distinguishing input pattern (DIP), query the oracle, and constrain both
// key copies with the observation; when the miter becomes unsatisfiable,
// every key consistent with the observations is functionally equivalent on
// all inputs, and one such key is extracted. The miter is the
// cone-of-influence form (cnf.NewMiter), which duplicates only
// key-reachable logic.
func SAT(locked *netlist.Circuit, o oracle.Oracle, b Budgets) (*Result, error) {
	if o.NumInputs() != locked.NumInputs() || o.NumOutputs() != locked.NumOutputs() {
		return nil, fmt.Errorf("attack: oracle shape %d/%d does not match circuit %d/%d",
			o.NumInputs(), o.NumOutputs(), locked.NumInputs(), locked.NumOutputs())
	}
	s := sat.New()
	s.MaxConflicts = b.MaxConflicts
	m, err := cnf.NewMiter(s, locked)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	maxIter := b.iterations(10000)
	for {
		satisfiable, err := s.Solve(m.AssumeDiff())
		if err != nil {
			res.SolverStats = s.Stats()
			return res, err
		}
		if !satisfiable {
			break // no more DIPs: keys consistent with observations are equivalent
		}
		if res.Iterations >= maxIter {
			res.SolverStats = s.Stats()
			return res, ErrIterationBudget
		}
		x := m.ExtractInputs()
		y, err := o.Query(x)
		if err != nil {
			res.SolverStats = s.Stats()
			res.finish(o)
			return res, err
		}
		if err := m.AddIOConstraint(x, y); err != nil {
			return res, err
		}
		res.Iterations++
	}
	// Extract a consistent key with the disequality disabled.
	satisfiable, err := s.Solve(m.AssumeNoDiff())
	res.SolverStats = s.Stats()
	res.finish(o)
	if err != nil {
		return res, err
	}
	if !satisfiable {
		// No key satisfies the observations: the "oracle" responses are
		// inconsistent with the locked netlist's key space. This is the
		// OraP signature when the protected chip answers queries with a
		// cleared key register that the netlist models differently.
		return res, fmt.Errorf("attack: observations inconsistent with locked netlist (no candidate key)")
	}
	res.Key = m.ExtractKey1()
	res.Converged = true
	return res, nil
}
