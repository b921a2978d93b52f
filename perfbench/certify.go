package main

import (
	"errors"
	"fmt"
	"math/big"
	"regexp"

	"orap/internal/attack"
	"orap/internal/audit"
	"orap/internal/bdd"
	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
)

// certifyCell is one (scheme, instance size) of the certify list, drawn
// copies times. The weighted cell is the one whose cones outgrow the BDD
// budget; its budget-bounded audits are the slowest items and get the
// most copies, so the tail percentile falls among them.
type certifyCell struct {
	scheme  string
	profile string
	scale   float64
	keyBits int
	copies  int
	gates   int // overrides the scaled profile's gate count when set
}

var certifyCells = []certifyCell{
	{"weighted", "b20", 0.007, 14, 40, 0},
	{"randomxor", "b20", 0.008, 16, 20, 0},
	{"sarlock", "b20", 0.015, 8, 20, 0},
	{"ttlock", "b20", 0.015, 8, 20, 0},
	{"antisat", "b22", 0.004, 12, 20, 0},
	// 8 inputs and 6 key bits: exact counts checked by brute force.
	{"randomxor", "s38584", 0.003, 6, 20, 400},
}

const (
	// certifyBDDBudget is the per-key-bit node budget of the exact audit;
	// cones beyond it fall back to the structural bound.
	certifyBDDBudget = 8000
	// certifyEquivBudget bounds each key-equivalence proof.
	certifyEquivBudget = 1 << 18
	// certifyBruteVars is the largest input count (PIs plus key bits)
	// whose exact counts are recomputed by enumeration.
	certifyBruteVars = 14
)

func planCertify(seed uint64, tiny bool) []itemSpec {
	cells := certifyCells
	if tiny {
		cells = []certifyCell{
			{"weighted", "b20", 0.004, 6, 1, 0}, {"sarlock", "b20", 0.005, 4, 1, 0}, {"randomxor", "s38584", 0.003, 6, 1, 100},
		}
	}
	var specs []itemSpec
	for _, cell := range cells {
		for c := 0; c < cell.copies; c++ {
			j := &certifyJob{cell: cell, prof: scaled(cell.profile, cell.scale), seed: itemSeed(seed, "certify", len(specs))}
			if cell.gates > 0 {
				j.prof.Name = fmt.Sprintf("%s-g%d", j.prof.Name, cell.gates)
				j.prof.Gates = cell.gates
			}
			id := fmt.Sprintf("%s-%d/%s/%016x", cell.scheme, cell.keyBits, j.prof.Name, j.seed)
			specs = append(specs, itemSpec{id: id, make: func() job { c := *j; return &c }})
		}
	}
	return shuffled(seed, "certify", specs)
}

// certifyJob is one security audit of a locked instance: the exact
// (BDD-backed) audit, plus key-equivalence proofs under the true key and
// under a key with one bit flipped.
type certifyJob struct {
	cell certifyCell
	prof benchgen.Profile
	seed uint64

	original *netlist.Circuit
	locked   *lock.Locked
	wrongKey []bool
}

type certifyDetail struct {
	exact             *audit.Report
	trueEq, wrongEq   *audit.Report
	trueErr, wrongErr error
}

func (j *certifyJob) setup(tr *tracer) error {
	c, err := generate(tr, j.prof, j.seed)
	if err != nil {
		return err
	}
	j.original = c
	if j.locked, err = lockWith(tr, j.cell.scheme, c, j.cell.keyBits, 3, 0, j.seed); err != nil {
		return err
	}
	j.wrongKey = append([]bool(nil), j.locked.Key...)
	flip := int(j.seed % uint64(len(j.wrongKey)))
	j.wrongKey[flip] = !j.wrongKey[flip]
	return nil
}

func (j *certifyJob) run(tr *tracer) (outcome, error) {
	h := tr.begin("audit.exact")
	rep, err := audit.Analyze(j.locked.Circuit, audit.Options{Exact: true, BDDBudget: certifyBDDBudget})
	tr.end(h)
	if err != nil {
		return outcome{}, err
	}
	d := &certifyDetail{exact: rep}
	h = tr.begin("audit.equiv")
	d.trueEq, d.trueErr = audit.KeyEquivalence(j.locked.Circuit, j.original, j.locked.Key, audit.ExactOptions{NodeBudget: certifyEquivBudget})
	tr.end(h)
	h = tr.begin("audit.equiv")
	d.wrongEq, d.wrongErr = audit.KeyEquivalence(j.locked.Circuit, j.original, j.wrongKey, audit.ExactOptions{NodeBudget: certifyEquivBudget})
	tr.end(h)
	for _, e := range []error{d.trueErr, d.wrongErr} {
		if e != nil && !errors.Is(e, bdd.ErrBudget) {
			return outcome{}, e
		}
	}

	ex := rep.Exact
	st := ex.Stats
	tr.count("bdd.nodes", float64(st.Nodes))
	tr.maxCount("bdd.peak_nodes", float64(st.PeakNodes))
	tr.count("bdd.cache_lookups", float64(st.CacheLookups))
	tr.count("bdd.cache_hits", float64(st.CacheHits))
	tr.count("bdd.fallbacks", float64(st.Fallbacks))
	out := outcome{budgeted: len(ex.Bits) + 2, detail: d}
	out.decided = len(ex.Bits) - st.Fallbacks
	var bitsText []interface{}
	for _, b := range ex.Bits {
		bitsText = append(bitsText, b.OK, b.SensPOs, b.CorruptCount, b.DistInputs, b.LeakPOs)
	}
	eq := func(r *audit.Report, e error) string {
		if e != nil {
			return "budget"
		}
		out.decided++
		return fmt.Sprintf("%d", len(r.Findings))
	}
	out.digest = fmt.Sprintf("findings=%d fallbacks=%d bits=%s eqTrue=%s eqWrong=%s",
		len(rep.Findings), st.Fallbacks, digest(bitsText...), eq(d.trueEq, d.trueErr), eq(d.wrongEq, d.wrongErr))
	return out, nil
}

// replay splits the audit: the structural analysis alone (Exact: false)
// must report the same fingerprint and testability findings, which the
// exact backend does not touch.
func (j *certifyJob) replay(tr *tracer, out outcome) error {
	if err := replayCompile(tr, j.locked.Circuit); err != nil {
		return err
	}
	h := tr.begin("audit.structural")
	st, err := audit.Analyze(j.locked.Circuit, audit.Options{})
	tr.end(h)
	if err != nil {
		return err
	}
	ex := out.detail.(*certifyDetail).exact
	for _, rule := range []string{audit.RuleKeyFingerprint, audit.RuleTestabilityBound} {
		a, b := fmt.Sprint(st.ByRule(rule)), fmt.Sprint(ex.ByRule(rule))
		if a != b {
			return fmt.Errorf("structural audit's %s findings differ from the exact audit's", rule)
		}
	}
	return nil
}

var witnessRE = regexp.MustCompile(`witness ([01-]+)`)

// check: the true key proves equivalent; the one-bit-wrong key is refuted
// with a witness the IR evaluator confirms; exact counts on small items
// match enumeration.
func (j *certifyJob) check(out outcome) ([]string, error) {
	d := out.detail.(*certifyDetail)
	var tags []string
	if d.trueErr == nil && len(d.trueEq.Findings) != 0 {
		return nil, fmt.Errorf("true key not proved equivalent: %v", d.trueEq.Findings[0])
	}
	lp, op := ir.MustCompile(j.locked.Circuit), ir.MustCompile(j.original)
	if d.wrongErr == nil && len(d.wrongEq.Findings) == 0 {
		// The flipped key gate can be unobservable; SAT must agree.
		ok, err := attack.VerifyKey(j.locked.Circuit, j.original, j.wrongKey)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("BDD proves the one-bit-wrong key equivalent, SAT refutes it")
		}
		tags = append(tags, "certify.wrong_key_unobservable")
	} else if d.wrongErr == nil {
		m := witnessRE.FindStringSubmatch(d.wrongEq.Findings[0].Msg)
		if m == nil {
			return nil, fmt.Errorf("refutation carries no witness: %s", d.wrongEq.Findings[0].Msg)
		}
		x := make([]bool, len(m[1]))
		for i, c := range m[1] {
			x[i] = c == '1'
		}
		ly, err := lp.Eval(x, j.wrongKey)
		if err != nil {
			return nil, err
		}
		oy, err := op.Eval(x, nil)
		if err != nil {
			return nil, err
		}
		if bitString(ly) == bitString(oy) {
			return nil, fmt.Errorf("witness %s does not distinguish the wrong key", m[1])
		}
	}
	if len(lp.Inputs) <= certifyBruteVars {
		tags = append(tags, "certify.brute_forced")
		return tags, bruteForceCounts(lp, d.exact.Exact)
	}
	return tags, nil
}

// bruteForceCounts recomputes every exact key bit's corruption count,
// |{(x, k) : F(x, k) ≠ F(x, k ⊕ e_bit)}|, by enumerating all inputs.
func bruteForceCounts(p *ir.Program, ex *audit.ExactResult) error {
	n := len(p.Inputs)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	words, lanes := enumLanes(n)
	a, b := newWordSim(p), newWordSim(p)
	in := make([]uint64, n)
	for _, bit := range ex.Bits {
		if !bit.OK {
			continue
		}
		kIdx := len(p.PIs) + bit.Bit
		count := int64(0)
		for w := 0; w < words; w++ {
			exhaustiveWords(in, all, w)
			a.load(in, lanes)
			in[kIdx] = ^in[kIdx]
			b.load(in, lanes)
			var diff uint64
			ao, bo := a.outputs(), b.outputs()
			for j := range ao {
				diff |= ao[j] ^ bo[j]
			}
			for ; diff != 0; diff &= diff - 1 {
				count++
			}
		}
		if bit.CorruptCount.Cmp(big.NewInt(count)) != 0 {
			return fmt.Errorf("key bit %d: exact corruption count %v, enumeration %d", bit.Bit, bit.CorruptCount, count)
		}
	}
	return nil
}
