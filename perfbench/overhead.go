package main

import (
	"fmt"
	"math/bits"

	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/metrics"
	"orap/internal/netlist"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
	"orap/internal/synth"
)

// overheadRows are the Table I rows of the overhead list: every paper
// benchmark, s38417 at paper scale and the others shrunk to 9k–11k gates,
// so a row takes about a tenth of a second and its simulated values
// (nodes × 64 words) outgrow the CPU's private caches.
var overheadRows = []struct {
	name  string
	scale float64
}{
	{"s38417", 1}, {"s38584", 0.8}, {"b17", 0.3}, {"b18", 0.1},
	{"b19", 0.05}, {"b20", 0.5}, {"b21", 0.5}, {"b22", 0.4},
}

const (
	overheadCopies = 6
	// overheadPatterns is the HD pattern count of a row.
	overheadPatterns = 1 << 15
	// overheadSimWords is the number of 64-pattern words the check
	// simulates with the benchmark's own evaluator, both to confirm
	// locked(k*) ≡ original and to re-estimate HD. A BDD proof of the
	// equivalence runs out of any affordable node budget on rows of this
	// size, and a SAT miter of two near-identical 10k-gate circuits does
	// not finish in a benchmark run.
	overheadSimWords = 256
	// overheadHDTolerance is how far, in percentage points, the check's
	// HD estimate may lie from the row's.
	overheadHDTolerance = 3.0
	// overheadWrongKeys is the number of wrong keys HD averages.
	overheadWrongKeys = 4
)

func planOverhead(seed uint64, tiny bool) []itemSpec {
	rows, copies := overheadRows, overheadCopies
	if tiny {
		rows, copies = rows[:2], 1
	}
	var specs []itemSpec
	for ri, row := range rows {
		for c := 0; c < copies; c++ {
			j := &overheadJob{prof: scaled(row.name, row.scale), patterns: overheadPatterns, seed: itemSeed(seed, "overhead", ri*copies+c)}
			if tiny {
				j.prof, j.patterns = scaled(row.name, 0.02), 1<<12
			}
			id := fmt.Sprintf("%s/%016x", j.prof.Name, j.seed)
			specs = append(specs, itemSpec{id: id, make: func() job { c := *j; return &c }})
		}
	}
	return shuffled(seed, "overhead", specs)
}

// overheadJob is one Table I row: weighted locking, basic OraP, Hamming
// distance under random wrong keys, and resynthesized area and delay.
// Set-up only generates the circuit; locking and protection belong to
// the row.
type overheadJob struct {
	prof     benchgen.Profile
	patterns int
	seed     uint64
	original *netlist.Circuit
}

type overheadDetail struct {
	locked *lock.Locked
	hd     metrics.HDResult
}

func (j *overheadJob) setup(tr *tracer) (err error) {
	j.original, err = generate(tr, j.prof, j.seed)
	return err
}

func (j *overheadJob) run(tr *tracer) (outcome, error) {
	l, err := lockWith(tr, "weighted", j.original, j.prof.LFSRSize, j.prof.CtrlInputs, 0, j.seed)
	if err != nil {
		return outcome{}, err
	}
	h := tr.begin("orap.protect")
	cfg, err := orap.Protect(l.Circuit, l.Key, j.prof.Pins, j.prof.PinOuts, scan.OraPBasic, orap.Options{Rand: rng.NewNamed(j.seed, "perfbench/orap")})
	tr.end(h)
	if err != nil {
		return outcome{}, err
	}
	regGates := orap.RegisterOverhead(cfg.LFSR).Gates()
	h = tr.begin("metrics.hd")
	hd, err := metrics.HammingDistance(l.Circuit, l.Key, metrics.HDOptions{
		Patterns: j.patterns, WrongKeys: overheadWrongKeys, Workers: 1, Rand: rng.NewNamed(j.seed, "perfbench/hd"),
	})
	tr.end(h)
	if err != nil {
		return outcome{}, err
	}
	// Pattern-gate evaluations: the correct key and every wrong key over
	// all patterns.
	tr.count("sim.gate_evals", float64(hd.Patterns)*float64(hd.WrongKeys+1)*float64(l.Circuit.NumNodes()))
	h = tr.begin("synth.compare")
	ov, err := synth.Compare(j.original, l.Circuit, regGates)
	tr.end(h)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		digest: fmt.Sprintf("key=%s hd=%.6f flipped=%.4f area=%.4f delay=%.4f reg=%d",
			digest(bitString(l.Key)), hd.HDPercent, hd.AvgFlippedOutputs, ov.AreaPercent(), ov.DelayPercent(), regGates),
		detail: &overheadDetail{locked: l, hd: hd},
	}
	return out, nil
}

func (j *overheadJob) replay(tr *tracer, out outcome) error {
	return replayCompile(tr, out.detail.(*overheadDetail).locked.Circuit)
}

// check confirms locked(k*) ≡ original by random simulation and
// re-estimates HD with the benchmark's own evaluator, on its own patterns
// and its own wrong keys.
func (j *overheadJob) check(out outcome) ([]string, error) {
	d := out.detail.(*overheadDetail)
	lp, op := ir.MustCompile(d.locked.Circuit), ir.MustCompile(j.original)
	if r := disagreement(lp, op, d.locked.Key, overheadSimWords, j.seed); r != 0 {
		return nil, fmt.Errorf("locked(k*) disagrees with the original on %.4f of random inputs", r)
	}
	hd := hammingPercent(lp, d.locked.Key, overheadWrongKeys, overheadSimWords, j.seed)
	if diff := hd - d.hd.HDPercent; diff > overheadHDTolerance || diff < -overheadHDTolerance {
		return nil, fmt.Errorf("HD %.3f%%, the check's own estimate %.3f%%", d.hd.HDPercent, hd)
	}
	return nil, nil
}

// hammingPercent estimates HD: the percentage of output bits on which
// the locked program under nWrong random wrong keys differs from it
// under the correct key, over words random 64-pattern words.
func hammingPercent(p *ir.Program, key []bool, nWrong, words int, seed uint64) float64 {
	r := rng.NewNamed(seed, "perfbench/hdcheck")
	keys := make([][]bool, 0, nWrong)
	for len(keys) < nWrong {
		k := make([]bool, len(key))
		r.Bits(k)
		if bitString(k) != bitString(key) {
			keys = append(keys, k)
		}
	}
	ws := newWordSim(p)
	in := make([]uint64, len(p.Inputs))
	setKey := func(k []bool) {
		for i, b := range k {
			in[len(p.PIs)+i] = 0
			if b {
				in[len(p.PIs)+i] = ^uint64(0)
			}
		}
		ws.load(in, 64)
	}
	diff := 0
	for w := 0; w < words; w++ {
		r.Words(in[:len(p.PIs)])
		setKey(key)
		good := ws.outputs()
		for _, k := range keys {
			setKey(k)
			for i, o := range ws.outputs() {
				diff += bits.OnesCount64(o ^ good[i])
			}
		}
	}
	return 100 * float64(diff) / float64(words*64*nWrong*len(p.POs))
}
