package main

import (
	"fmt"
	"hash/fnv"

	"orap/internal/benchgen"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// scaled returns a benchgen profile shrunk by factor.
func scaled(name string, factor float64) benchgen.Profile {
	p, err := benchgen.ProfileByName(name)
	if err != nil {
		panic(err) // the plans name only built-in profiles
	}
	return p.Scale(factor)
}

// generate builds an item's circuit from its seed.
func generate(tr *tracer, prof benchgen.Profile, seed uint64) (*netlist.Circuit, error) {
	h := tr.begin("benchgen.generate")
	defer tr.end(h)
	return benchgen.Generate(prof, seed)
}

// lockWith applies one of the five locking schemes. Weighted locking
// uses ctrlWidth-input control gates and keyGates key gates (0: one per
// disjoint key group). Point-function schemes compare keyBits primary
// inputs (Anti-SAT gets keyBits/2 per half, so every scheme's key is
// keyBits wide). A drawn all-zero key is replaced by redrawing: OraP's
// cleared key register would otherwise hold the correct key.
func lockWith(tr *tracer, scheme string, c *netlist.Circuit, keyBits, ctrlWidth, keyGates int, seed uint64) (*lock.Locked, error) {
	h := tr.begin("lock.lock")
	defer tr.end(h)
	for attempt := 0; attempt < 8; attempt++ {
		r := rng.NewNamed(seed, fmt.Sprintf("perfbench/lock/%s/%d", scheme, attempt))
		var l *lock.Locked
		var err error
		switch scheme {
		case "weighted":
			l, err = lock.Weighted(c, lock.WeightedOptions{KeyBits: keyBits, ControlWidth: ctrlWidth, KeyGates: keyGates, Rand: r})
		case "randomxor":
			l, err = lock.RandomXOR(c, keyBits, r)
		case "sarlock":
			l, err = lock.SARLock(c, keyBits, r)
		case "ttlock":
			l, err = lock.TTLock(c, keyBits, r)
		case "antisat":
			l, err = lock.AntiSAT(c, keyBits/2, r)
		default:
			return nil, fmt.Errorf("unknown locking scheme %q", scheme)
		}
		if err != nil {
			return nil, err
		}
		for _, b := range l.Key {
			if b {
				return l, nil
			}
		}
	}
	return nil, fmt.Errorf("%s lock drew an all-zero key eight times", scheme)
}

// digest hashes values into a short stable string.
func digest(parts ...interface{}) string {
	h := fnv.New64a()
	fmt.Fprint(h, parts...)
	return fmt.Sprintf("%016x", h.Sum64())
}

func bitString(bs []bool) string {
	b := make([]byte, len(bs))
	for i, v := range bs {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

// wordSim evaluates a compiled program 64 patterns at a time with the IR
// gate kernel and injects single stuck-at faults by event-driven cone
// propagation. It is the benchmark's own checker, independent of the
// fault simulator and of the SAT-based generator it checks.
type wordSim struct {
	prog  *ir.Program
	good  []uint64
	bad   []uint64
	mark  []uint32
	epoch uint32
	isPO  []bool
	lanes uint64
}

func newWordSim(prog *ir.Program) *wordSim {
	n := prog.NumNodes()
	s := &wordSim{prog: prog, good: make([]uint64, n), bad: make([]uint64, n), mark: make([]uint32, n), isPO: make([]bool, n)}
	for _, o := range prog.POs {
		s.isPO[o] = true
	}
	return s
}

// load sets the input words (one per entry of prog.Inputs) and evaluates
// the good circuit; lanes at and above n are ignored.
func (s *wordSim) load(in []uint64, n int) {
	for i, id := range s.prog.Inputs {
		s.good[id] = in[i]
	}
	s.prog.RunWords(s.good, 1)
	s.lanes = ^uint64(0)
	if n < 64 {
		s.lanes = 1<<uint(n) - 1
	}
}

// outputs returns the good values of the primary outputs.
func (s *wordSim) outputs() []uint64 {
	out := make([]uint64, len(s.prog.POs))
	for j, o := range s.prog.POs {
		out[j] = s.good[o] & s.lanes
	}
	return out
}

// detects returns the lanes on which fault node/pin stuck-at sa1 changes
// some primary output.
func (s *wordSim) detects(node, pin int, sa1 bool) uint64 {
	s.epoch++
	p := s.prog
	val := func(id int32) uint64 {
		if s.mark[id] == s.epoch {
			return s.bad[id]
		}
		return s.good[id]
	}
	stuck := uint64(0)
	if sa1 {
		stuck = ^uint64(0)
	}
	var diff uint64
	for _, id := range p.Order[p.Pos[node]:] {
		fan := p.FaninSpan(int(id))
		var v uint64
		switch {
		case int(id) == node && pin < 0:
			v = stuck
		case int(id) == node:
			v = ir.EvalWord(p.Ops[id], len(fan), func(i int) uint64 {
				if i == pin {
					return stuck
				}
				return val(fan[i])
			})
		default:
			touched := false
			for _, f := range fan {
				if s.mark[f] == s.epoch {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			v = ir.EvalWord(p.Ops[id], len(fan), func(i int) uint64 { return val(fan[i]) })
		}
		if v == s.good[id] && int(id) != node {
			continue
		}
		s.bad[id] = v
		s.mark[id] = s.epoch
		if s.isPO[id] {
			diff |= v ^ s.good[id]
		}
	}
	return diff & s.lanes
}

// exhaustiveWords fills in with the block-th 64-pattern word of an
// enumeration over the inputs listed in vars (others held at zero).
func exhaustiveWords(in []uint64, vars []int, block int) {
	for i := range in {
		in[i] = 0
	}
	lowMasks := [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}
	for j, v := range vars {
		switch {
		case j < 6:
			in[v] = lowMasks[j]
		case block>>(uint(j)-6)&1 == 1:
			in[v] = ^uint64(0)
		}
	}
}

// enumLanes is the number of valid lanes per word when enumerating k
// variables.
func enumLanes(k int) (words, lanes int) {
	if k >= 6 {
		return 1 << uint(k-6), 64
	}
	return 1, 1 << uint(k)
}

// packPatterns bit-slices patterns[lo:hi] into one word per input.
func packPatterns(in []uint64, patterns [][]bool, lo, hi int) {
	for i := range in {
		in[i] = 0
	}
	for p := lo; p < hi; p++ {
		for i, v := range patterns[p] {
			if v {
				in[i] |= 1 << uint(p-lo)
			}
		}
	}
}

// disagreement estimates the fraction of random primary-input patterns on
// which locked under key differs from the original in some output, with
// the benchmark's own evaluator.
func disagreement(locked, original *ir.Program, key []bool, words int, seed uint64) float64 {
	ls, osim := newWordSim(locked), newWordSim(original)
	r := rng.NewNamed(seed, "perfbench/disagreement")
	lin := make([]uint64, len(locked.Inputs))
	oin := make([]uint64, len(original.Inputs))
	bad := 0
	for w := 0; w < words; w++ {
		r.Words(oin)
		copy(lin, oin[:len(original.PIs)])
		for k, b := range key {
			lin[len(locked.PIs)+k] = 0
			if b {
				lin[len(locked.PIs)+k] = ^uint64(0)
			}
		}
		ls.load(lin, 64)
		osim.load(oin, 64)
		var d uint64
		lo, oo := ls.outputs(), osim.outputs()
		for j := range lo {
			d |= lo[j] ^ oo[j]
		}
		for ; d != 0; d &= d - 1 {
			bad++
		}
	}
	return float64(bad) / float64(64*words)
}
