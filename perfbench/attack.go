package main

import (
	"errors"
	"fmt"

	"orap/internal/attack"
	"orap/internal/audit"
	"orap/internal/bdd"
	"orap/internal/benchgen"
	"orap/internal/cnf"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/scan"
)

// attackCell is one (scheme, instance size) of the attack list; every
// cell runs each attack against each oracle, copies times. Weighted
// locking inserts one key gate per key bit, as in the paper's attack
// study. The point-function cells get fewer copies: most of their attacks
// stop after a few cheap rounds, and the median item should be a typical
// attack.
type attackCell struct {
	scheme  string
	profile string
	scale   float64
	keyBits int
	copies  int
}

var attackCells = []attackCell{
	{"weighted", "b20", 0.008, 8, 20},
	{"randomxor", "b20", 0.008, 10, 20},
	{"sarlock", "b20", 0.02, 6, 4},
	{"ttlock", "b20", 0.02, 6, 4},
	{"antisat", "b20", 0.02, 8, 4},
}

var attackNames = []string{"sat", "doubledip", "appsat", "hill"}

// Oracle kinds: the ideal combinational oracle, and the scan oracle of a
// conventional chip and of an OraP chip.
var oracleKinds = []string{"comb", "scan", "orap"}

// attackMaxIterations bounds every DIP loop.
const attackMaxIterations = 600

func planAttack(seed uint64, tiny bool) []itemSpec {
	cells := attackCells
	if tiny {
		cells = []attackCell{
			{"weighted", "b20", 0.005, 8, 1}, {"sarlock", "b20", 0.005, 4, 1}, {"antisat", "b20", 0.005, 4, 1},
		}
	}
	var specs []itemSpec
	slot := 0
	for _, cell := range cells {
		for _, a := range attackNames {
			for _, ok := range oracleKinds {
				for c := 0; c < cell.copies; c++ {
					j := &attackJob{cell: cell, attack: a, oracle: ok, prof: scaled(cell.profile, cell.scale), seed: itemSeed(seed, "attack", slot)}
					slot++
					id := fmt.Sprintf("%s-%d/%s/%s/%016x", cell.scheme, cell.keyBits, a, ok, j.seed)
					specs = append(specs, itemSpec{id: id, make: func() job { c := *j; return &c }})
				}
			}
		}
	}
	return shuffled(seed, "attack", specs)
}

// attackJob is one oracle-guided attack against a seeded lock instance.
type attackJob struct {
	cell   attackCell
	attack string
	oracle string
	prof   benchgen.Profile
	seed   uint64

	original *netlist.Circuit
	locked   *lock.Locked
	comb     *oracle.Comb
	chip     *scan.Chip
}

type attackDetail struct {
	res   *attack.Result
	err   error
	first []bool // the first pattern that reached the chip
}

func (j *attackJob) setup(tr *tracer) error {
	c, err := generate(tr, j.prof, j.seed)
	if err != nil {
		return err
	}
	j.original = c
	if j.locked, err = lockWith(tr, j.cell.scheme, c, j.cell.keyBits, 3, j.cell.keyBits, j.seed); err != nil {
		return err
	}
	if j.oracle == "comb" {
		h := tr.begin("scan.unlock")
		j.comb, err = oracle.NewComb(j.locked.Circuit, j.locked.Key)
		tr.end(h)
		return err
	}
	prot := scan.None
	if j.oracle == "orap" {
		prot = scan.OraPBasic
	}
	h := tr.begin("orap.protect")
	cfg, err := orap.Protect(j.locked.Circuit, j.locked.Key, j.prof.Pins, j.prof.PinOuts, prot, orap.Options{Rand: rng.NewNamed(j.seed, "perfbench/orap")})
	tr.end(h)
	if err != nil {
		return err
	}
	h = tr.begin("scan.unlock")
	defer tr.end(h)
	if j.chip, err = scan.New(cfg); err != nil {
		return err
	}
	return j.chip.Unlock(nil)
}

// channel opens the oracle the attack queries: the chip behind the timing
// wrapper, behind a fresh session.
func (j *attackJob) channel(tr *tracer) (*oracle.Session, *timedOracle, error) {
	var base oracle.Oracle = j.comb
	if j.chip != nil {
		base = oracle.NewScan(j.chip)
	}
	t, err := newTimedOracle(base, tr)
	if err != nil {
		return nil, nil, err
	}
	return oracle.NewSession(t, 0), t, nil
}

func (j *attackJob) run(tr *tracer) (outcome, error) {
	sess, timed, err := j.channel(tr)
	if err != nil {
		return outcome{}, err
	}
	l := j.locked.Circuit
	b := attack.Budgets{MaxIterations: attackMaxIterations}
	h := tr.begin("attack." + j.attack)
	var res *attack.Result
	switch j.attack {
	case "sat":
		res, err = attack.SAT(l, sess, b)
	case "doubledip":
		res, err = attack.DoubleDIP(l, sess, b)
	case "appsat":
		res, err = attack.AppSAT(l, sess, attack.AppSATOptions{Budgets: b, Rand: rng.NewNamed(j.seed, "perfbench/appsat")})
	case "hill":
		// With fewer patterns a hill-climbing item ends in well under a
		// millisecond.
		res, err = attack.HillClimb(l, sess, attack.HillOptions{Patterns: 4096, Restarts: 8, Rand: rng.NewNamed(j.seed, "perfbench/hill")})
	}
	tr.end(h)
	// An attack may fail by design (OraP starves it); the check judges
	// the error against the expected outcome.
	st := sess.Stats()
	out := outcome{budgeted: 1, detail: &attackDetail{res, err, timed.first}}
	var key []bool
	it, conv := 0, false
	if res != nil {
		key, it, conv = res.Key, res.Iterations, res.Converged
		addSolver(tr, res.SolverStats)
		tr.count("attack.iterations", float64(it))
		if conv {
			out.decided = 1
		}
	}
	tr.count("oracle.queries", float64(sess.Admitted()))
	tr.count("oracle.session_queries", float64(st.Queries))
	tr.count("oracle.cache_hits", float64(st.CacheHits))
	tr.count("oracle.crossings", float64(st.OracleCalls))
	tr.count("oracle.scan_cycles", float64(st.ScanCycles))
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	out.digest = fmt.Sprintf("key=%s it=%d conv=%v q=%d u=%d err=%q", bitString(key), it, conv, st.Queries, st.Unique, errText)
	return out, nil
}

// replay times the miter construction the SAT-family attacks start with,
// and for the SAT attack checks that the replayed miter's first
// distinguishing input is the first pattern the attack asked the chip.
func (j *attackJob) replay(tr *tracer, out outcome) error {
	if err := replayCompile(tr, j.locked.Circuit); err != nil {
		return err
	}
	if j.attack == "hill" {
		return nil
	}
	s := sat.New()
	h := tr.begin("cnf.miter")
	m, err := cnf.NewMiter(s, j.locked.Circuit)
	tr.end(h)
	if err != nil {
		return err
	}
	if j.attack != "sat" {
		return nil
	}
	ok, err := s.Solve(m.AssumeDiff())
	if err != nil || !ok {
		return fmt.Errorf("replayed miter has no first DIP (sat=%v, err=%v)", ok, err)
	}
	first := out.detail.(*attackDetail).first
	if got := bitString(m.ExtractInputs()); got != bitString(first) {
		return fmt.Errorf("replayed miter's first DIP %s differs from the attack's first query %s", got, bitString(first))
	}
	return nil
}

// Expected outcomes. Exact attacks (SAT) must recover a key proved
// equivalent against unprotected chips. AppSAT and DoubleDIP may return
// approximate keys: they pass when the key disagrees with the original on
// no more random inputs than a point function's wrong key does (two
// patterns in 2^keyBits, TTLock's worst case) plus attackSampleSlack:
// AppSAT settles after 64 agreeing random samples, which a key wrong on
// 10% of inputs still passes one time in a thousand; one wrong on 15%
// passes with odds below 1 in 30000. Hill climbing is heuristic and only
// reported.
//
// Through OraP the chip answers with its key register cleared, so the
// attacker sees locked(x, 0). OraP's claim rests on that being a badly
// wrong key, as with the high-corruptibility locking the paper pairs it
// with: when the all-zero key corrupts at least attackOraPMinCorruption of
// the inputs, recovering a correct key through OraP is a failure. Below
// it the cleared register answers like the original on most inputs (a
// point-function lock's all-zero key is wrong on a pattern or two), so an
// attack may recover a correct key; check measures the corruption and
// tags such an item "attack.orap_weak_recovered".
const (
	attackOraPMinCorruption = 0.5
	attackSampleSlack       = 0.15
	attackSampleWords       = 64
	attackProofBudget       = 1 << 18
)

func (j *attackJob) check(out outcome) ([]string, error) {
	d := out.detail.(*attackDetail)
	protected := j.oracle == "orap"
	if d.err != nil {
		if protected {
			return nil, nil // starved by OraP: the expected failure
		}
		return nil, fmt.Errorf("%s against an unprotected chip failed: %w", j.attack, d.err)
	}
	key := d.res.Key
	if key == nil {
		if protected || j.attack == "hill" {
			return nil, nil
		}
		return nil, fmt.Errorf("%s returned no key", j.attack)
	}
	equal, err := keyEquivalent(j.locked.Circuit, j.original, key)
	if err != nil {
		return nil, err
	}
	switch {
	case protected:
		if !equal {
			return nil, nil
		}
		r := zeroKeyCorruption(j.locked, j.original, j.seed)
		if r >= attackOraPMinCorruption {
			return nil, fmt.Errorf("%s recovered a correct key through OraP, whose cleared key register corrupts %.3f of inputs", j.attack, r)
		}
		return []string{"attack.orap_weak_recovered"}, nil
	case j.attack == "sat":
		if !d.res.Converged || !equal {
			return nil, fmt.Errorf("SAT attack key is not equivalent (converged=%v)", d.res.Converged)
		}
	case j.attack == "appsat" || j.attack == "doubledip":
		if equal {
			return nil, nil
		}
		lp, op := ir.MustCompile(j.locked.Circuit), ir.MustCompile(j.original)
		limit := 2/float64(uint64(1)<<uint(j.cell.keyBits)) + attackSampleSlack
		if r := disagreement(lp, op, key, attackSampleWords, j.seed); r > limit {
			return nil, fmt.Errorf("%s key disagrees on %.4f of inputs, above %.4f", j.attack, r, limit)
		}
	}
	return nil, nil
}

// keyEquivalent proves locked(key) ≡ original with the BDD engine, and
// falls back to the SAT check when the proof exceeds its node budget.
func keyEquivalent(locked, original *netlist.Circuit, key []bool) (bool, error) {
	rep, err := audit.KeyEquivalence(locked, original, key, audit.ExactOptions{NodeBudget: attackProofBudget})
	if errors.Is(err, bdd.ErrBudget) {
		return attack.VerifyKey(locked, original, key)
	}
	if err != nil {
		return false, err
	}
	return len(rep.Findings) == 0, nil
}

// zeroKeyCorruption samples how often the locked circuit under the
// all-zero key disagrees with the original.
func zeroKeyCorruption(l *lock.Locked, original *netlist.Circuit, seed uint64) float64 {
	lp, op := ir.MustCompile(l.Circuit), ir.MustCompile(original)
	return disagreement(lp, op, make([]bool, len(l.Key)), attackSampleWords, seed)
}
