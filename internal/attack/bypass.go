package attack

import (
	"fmt"

	"orap/internal/cnf"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/sat"
	"orap/internal/sim"
)

// BypassOptions tunes the bypass attack.
type BypassOptions struct {
	// MaxPatches bounds the number of corrected input patterns; the
	// attack reports failure beyond it (bypass is only economical against
	// low-corruption defenses where few inputs differ). Default 64.
	MaxPatches int
	// MaxConflicts bounds SAT effort (0 = unlimited).
	MaxConflicts int64
}

// BypassResult reports the bypass attack's outcome.
type BypassResult struct {
	// Key is the arbitrary (wrong) key the patched circuit applies.
	Key []bool
	// Patches maps the differing input patterns to their correct
	// responses; the attacker realizes them as comparator-plus-mux bypass
	// hardware around the locked chip.
	Patches map[string][]bool
	// OracleQueries counts oracle accesses.
	OracleQueries int
	// Channel holds oracle-channel telemetry when the attack ran against
	// an oracle.Session; zero otherwise.
	Channel oracle.ChannelStats

	// evalFor/eval memoize the compiled evaluator of the last circuit
	// passed to Eval, so verification loops do not recompile per pattern.
	evalFor *netlist.Circuit
	eval    *sim.Evaluator
}

// Bypass runs the bypass attack of Xu et al. (CHES'17): instead of
// searching for the correct key, the attacker fixes an arbitrary key,
// enumerates (with SAT) the inputs on which that keyed circuit could
// still disagree with the oracle, queries the oracle exactly there, and
// wraps the chip in bypass logic correcting those inputs. Against
// point-function defenses (SARLock, Anti-SAT) the disagreement set is a
// handful of patterns, so the bypass hardware is tiny.
//
// The attack is oracle-based: the patch table needs the *correct*
// responses at the disagreement points. Against an OraP chip those
// queries return locked-circuit responses and the patched design remains
// wrong — the same starvation as every other attack in this package.
//
// The enumeration uses a two-key miter: inputs where two independent key
// copies can disagree over-approximate the inputs where the chosen key
// can be wrong (for point-function defenses the set is the same, and
// tight enumeration would need the correct key).
func Bypass(locked *netlist.Circuit, o oracle.Oracle, chosenKey []bool, opts BypassOptions) (*BypassResult, error) {
	if len(chosenKey) != locked.NumKeys() {
		return nil, fmt.Errorf("attack: chosen key width %d != %d", len(chosenKey), locked.NumKeys())
	}
	if opts.MaxPatches <= 0 {
		opts.MaxPatches = 64
	}
	s := sat.New()
	s.MaxConflicts = opts.MaxConflicts
	// Every input pattern the miter admits is a complete assignment of the
	// primary inputs, including those outside the key-reachable support
	// (the miter leaves them free), and the blocking clause below removes
	// exactly that pattern. The loop therefore enumerates the set
	// {x : ∃k₂ C(x,k₁) ≠ C(x,k₂)} one full pattern at a time; which
	// encoding finds them changes only the order.
	m, err := cnf.NewMiter(s, locked)
	if err != nil {
		return nil, err
	}
	// Fix key copy 1 to the chosen key; copy 2 ranges over all keys, so
	// the miter enumerates every input where SOME key disagrees with the
	// chosen one — a superset of the inputs where the chosen key is
	// wrong.
	if err := cnf.ConstrainBits(s, m.Key1, chosenKey); err != nil {
		return nil, err
	}
	res := &BypassResult{
		Key:     append([]bool(nil), chosenKey...),
		Patches: make(map[string][]bool),
	}
	for {
		satisfiable, err := s.Solve(m.AssumeDiff())
		if err != nil {
			return res, err
		}
		if !satisfiable {
			break
		}
		if len(res.Patches) >= opts.MaxPatches {
			return res, fmt.Errorf("attack: bypass patch budget exhausted (%d patterns; defense is not point-like)", opts.MaxPatches)
		}
		x := m.ExtractInputs()
		y, err := o.Query(x)
		if err != nil {
			res.OracleQueries = o.Queries()
			res.Channel = channelStats(o)
			return res, err
		}
		res.Patches[patternKey(x)] = y
		// Block this input pattern and continue enumerating.
		blocking := make([]sat.Lit, len(m.PIVars))
		for i, v := range m.PIVars {
			blocking[i] = sat.MkLit(v, x[i])
		}
		s.AddClause(blocking...)
	}
	res.OracleQueries = o.Queries()
	res.Channel = channelStats(o)
	return res, nil
}

// Eval evaluates the patched design: the locked circuit under the chosen
// key, with the patch table overriding the bypassed inputs. This is the
// functional view of the attacker's bypass hardware. The circuit is
// compiled on first use and reused while the same circuit is passed, so
// sampling loops stay cheap; not safe for concurrent use.
func (b *BypassResult) Eval(locked *netlist.Circuit, x []bool) ([]bool, error) {
	if y, ok := b.Patches[patternKey(x)]; ok {
		return append([]bool(nil), y...), nil
	}
	if b.eval == nil || b.evalFor != locked {
		ev, err := sim.NewEvaluator(locked)
		if err != nil {
			return nil, err
		}
		b.eval, b.evalFor = ev, locked
	}
	return b.eval.Eval(x, b.Key)
}

// PatchHardwareGE estimates the bypass hardware in NAND2 gate
// equivalents: per patched pattern, an input comparator (one XNOR per
// input + AND tree) and one mux per output bit that differs.
func (b *BypassResult) PatchHardwareGE(inputs, outputs int) float64 {
	perPattern := 3.0*float64(inputs) + float64(inputs-1) + 3.0*float64(outputs)
	return perPattern * float64(len(b.Patches))
}

func patternKey(x []bool) string {
	out := make([]byte, len(x))
	for i, b := range x {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
