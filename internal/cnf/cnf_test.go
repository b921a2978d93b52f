package cnf

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/sim"
)

// solveWithInputs fixes the PI variables to a pattern and reads back the
// outputs from the model, cross-checking the encoding against simulation.
func solveWithInputs(t *testing.T, c *netlist.Circuit, pattern []bool) []bool {
	t.Helper()
	s := sat.New()
	inst, err := EncodeProgram(s, ir.MustCompile(c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ConstrainBits(s, inst.PIVars, pattern); err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	out := make([]bool, len(inst.POVars))
	for i, v := range inst.POVars {
		out[i] = s.Value(v) == sat.True
	}
	return out
}

func TestEncodeMatchesSimulationC17(t *testing.T) {
	c := circuits.C17()
	for v := 0; v < 32; v++ {
		in := make([]bool, 5)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		want, err := sim.Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := solveWithInputs(t, c, in)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("input %05b output %d: CNF %v, sim %v", v, j, got[j], want[j])
			}
		}
	}
}

func TestEncodeMatchesSimulationAllGateTypes(t *testing.T) {
	c := netlist.New("allgates")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	d, _ := c.AddInput("d")
	one, _ := c.AddConst(true, "one")
	zero, _ := c.AddConst(false, "zero")
	nodes := []int{
		c.MustAddGate(netlist.And, "and", a, b, d),
		c.MustAddGate(netlist.Nand, "nand", a, b, d),
		c.MustAddGate(netlist.Or, "or", a, b, d),
		c.MustAddGate(netlist.Nor, "nor", a, b, d),
		c.MustAddGate(netlist.Xor, "xor", a, b, d),
		c.MustAddGate(netlist.Xnor, "xnor", a, b, d),
		c.MustAddGate(netlist.Not, "not", a),
		c.MustAddGate(netlist.Buf, "buf", b),
		c.MustAddGate(netlist.And, "withconst", one, a),
		c.MustAddGate(netlist.Or, "withzero", zero, b),
	}
	for _, n := range nodes {
		c.MarkOutput(n)
	}
	for v := 0; v < 8; v++ {
		in := []bool{v&1 == 1, v>>1&1 == 1, v>>2&1 == 1}
		want, err := sim.Eval(c, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := solveWithInputs(t, c, in)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("input %03b output %d (%s): CNF %v, sim %v", v, j, c.NameOf(c.POs[j]), got[j], want[j])
			}
		}
	}
}

func TestEncodeSharedVariables(t *testing.T) {
	prog := ir.MustCompile(circuits.C17())
	s := sat.New()
	a, err := EncodeProgram(s, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeProgram(s, prog, Options{PIVars: a.PIVars})
	if err != nil {
		t.Fatal(err)
	}
	// Same inputs → outputs must always match: disequality is UNSAT.
	diffs := make([]sat.Lit, 0, 2)
	for i := range a.POVars {
		d := sat.MkLit(s.NewVar(), false)
		EmitXor2(s, d, sat.MkLit(a.POVars[i], false), sat.MkLit(b.POVars[i], false))
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...)
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("two copies sharing inputs produced different outputs")
	}
}

func TestEncodeOptionValidation(t *testing.T) {
	prog := ir.MustCompile(circuits.C17())
	s := sat.New()
	if _, err := EncodeProgram(s, prog, Options{PIVars: make([]sat.Var, 2)}); err == nil {
		t.Error("wrong PIVars width accepted")
	}
	if _, err := EncodeProgram(s, prog, Options{KeyVars: make([]sat.Var, 1)}); err == nil {
		t.Error("wrong KeyVars width accepted")
	}
}

func TestMiterRequiresKeys(t *testing.T) {
	s := sat.New()
	if _, err := NewMiter(s, circuits.C17()); err == nil {
		t.Fatal("miter over unkeyed circuit accepted")
	}
}

func TestMiterFindsDistinguishingInput(t *testing.T) {
	r := rng.New(1)
	l, err := lock.RandomXOR(circuits.C17(), 3, r)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	m, err := NewMiter(s, l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve(m.AssumeDiff())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no DIP found for a randomly locked c17")
	}
	// The model must truly be a DIP: simulate both extracted keys.
	x := m.ExtractInputs()
	k1 := m.ExtractKey1()
	k2 := extract(s, m.Key2)
	o1, _ := sim.Eval(l.Circuit, x, k1)
	o2, _ := sim.Eval(l.Circuit, x, k2)
	same := true
	for i := range o1 {
		if o1[i] != o2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("extracted DIP does not distinguish the extracted keys")
	}
}

// TestMiterMatchesBruteForce checks the cone-of-influence miter against
// exhaustive evaluation: for every sampled key pair, solving under the
// disequality with both key copies pinned is satisfiable exactly when some
// input distinguishes the two keys, and every returned DIP does.
func TestMiterMatchesBruteForce(t *testing.T) {
	locks := []struct {
		name string
		lock func(*netlist.Circuit, *rng.Stream) (*lock.Locked, error)
	}{
		{"randomxor", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.RandomXOR(c, 4, r) }},
		{"sarlock", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.SARLock(c, 4, r) }},
		{"antisat", func(c *netlist.Circuit, r *rng.Stream) (*lock.Locked, error) { return lock.AntiSAT(c, 3, r) }},
	}
	plains := []*netlist.Circuit{circuits.C17(), circuits.Comparator4(), circuits.RippleAdder(4)}
	r := rng.New(14)
	distinct, equal := 0, 0
	for _, lk := range locks {
		for _, plain := range plains {
			l, err := lk.lock(plain, r)
			if err != nil {
				t.Fatal(err)
			}
			prog := ir.MustCompile(l.Circuit)
			s := sat.New()
			m, err := NewMiter(s, l.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			nk, ni := prog.NumKeys(), prog.NumInputs()
			// Pairs: equal keys, one-bit neighbours, the correct key against
			// random keys, and independent random pairs.
			for pair := 0; pair < 24; pair++ {
				k1, k2 := make([]bool, nk), make([]bool, nk)
				switch pair % 4 {
				case 0:
					r.Bits(k1)
					copy(k2, k1)
				case 1:
					r.Bits(k1)
					copy(k2, k1)
					i := r.Intn(nk)
					k2[i] = !k2[i]
				case 2:
					copy(k1, l.Key)
					r.Bits(k2)
				default:
					r.Bits(k1)
					r.Bits(k2)
				}
				want := false
				x := make([]bool, ni)
				for v := 0; v < 1<<uint(ni) && !want; v++ {
					for i := range x {
						x[i] = v>>uint(i)&1 == 1
					}
					want = !sameOutputs(t, prog, x, k1, k2)
				}
				assume := []sat.Lit{m.AssumeDiff()}
				for i := range k1 {
					assume = append(assume, sat.MkLit(m.Key1[i], !k1[i]), sat.MkLit(m.Key2[i], !k2[i]))
				}
				got, err := s.Solve(assume...)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%s pair %d (k1=%v k2=%v): miter SAT=%v, brute force distinguishable=%v",
						lk.name, plain.Name, pair, k1, k2, got, want)
				}
				if !got {
					equal++
					continue
				}
				distinct++
				if dip := m.ExtractInputs(); sameOutputs(t, prog, dip, k1, k2) {
					t.Fatalf("%s/%s pair %d: returned DIP %v does not distinguish the keys", lk.name, plain.Name, pair, dip)
				}
			}
		}
	}
	// Every lock contributes six equal-key pairs; the sample must also hold
	// distinct but equivalent keys, or the UNSAT side is only tested on
	// the trivial case.
	t.Logf("%d distinguishable pairs, %d equivalent pairs", distinct, equal)
	if distinct == 0 || equal <= len(locks)*len(plains)*6 {
		t.Fatalf("degenerate sample: %d distinguishable pairs, %d equivalent pairs", distinct, equal)
	}
}

// sameOutputs reports whether the program gives equal outputs on x under
// keys k1 and k2.
func sameOutputs(t *testing.T, prog *ir.Program, x, k1, k2 []bool) bool {
	t.Helper()
	o1, err := prog.Eval(x, k1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := prog.Eval(x, k2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			return false
		}
	}
	return true
}

func TestMiterIOConstraintNarrowsKeys(t *testing.T) {
	r := rng.New(2)
	orig := circuits.C17()
	l, err := lock.RandomXOR(orig, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	m, err := NewMiter(s, l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	// Feed every input pattern's correct response; afterwards the miter
	// must be UNSAT and key extraction must yield a correct key.
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		y, err := sim.Eval(orig, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddIOConstraint(x, y); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := s.Solve(m.AssumeDiff())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("DIP still exists after constraining all 32 patterns")
	}
	ok, err = s.Solve(m.AssumeNoDiff())
	if err != nil || !ok {
		t.Fatalf("key extraction Solve = %v, %v", ok, err)
	}
	key := m.ExtractKey1()
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		want, _ := sim.Eval(orig, x, nil)
		got, _ := sim.Eval(l.Circuit, x, key)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("extracted key wrong on input %05b", v)
			}
		}
	}
}

func TestConstrainBitsLengthChecked(t *testing.T) {
	s := sat.New()
	v := s.NewVar()
	if err := ConstrainBits(s, []sat.Var{v}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEncodeMatchesSimulationRandomCircuits(t *testing.T) {
	// Cross-check the Tseitin encoding against the simulator on generated
	// random-logic circuits: for random input patterns, fixing the PIs in
	// CNF must force exactly the simulated outputs.
	r := rng.New(77)
	for trial := 0; trial < 5; trial++ {
		prof, err := benchgen.ProfileByName("b20")
		if err != nil {
			t.Fatal(err)
		}
		c, err := benchgen.Generate(prof.Scale(0.002), uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		prog := ir.MustCompile(c)
		in := make([]bool, c.NumInputs())
		for pat := 0; pat < 4; pat++ {
			r.Bits(in)
			want, err := sim.Eval(c, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := sat.New()
			inst, err := EncodeProgram(s, prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ConstrainBits(s, inst.PIVars, in); err != nil {
				t.Fatal(err)
			}
			ok, err := s.Solve()
			if err != nil || !ok {
				t.Fatalf("trial %d pattern %d: Solve = %v, %v", trial, pat, ok, err)
			}
			for j, v := range inst.POVars {
				if (s.Value(v) == sat.True) != want[j] {
					t.Fatalf("trial %d pattern %d output %d: CNF disagrees with simulation", trial, pat, j)
				}
			}
		}
	}
}

func BenchmarkEncodeB20Slice(b *testing.B) {
	prof, _ := benchgen.ProfileByName("b20")
	c, err := benchgen.Generate(prof.Scale(0.05), 1)
	if err != nil {
		b.Fatal(err)
	}
	prog := ir.MustCompile(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		if _, err := EncodeProgram(s, prog, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
