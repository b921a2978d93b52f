package sat

import (
	"sort"
	"testing"

	"orap/internal/rng"
)

// mkLearnt installs a fake learned clause with the given LBD directly, so
// reduceDB policy is testable in isolation.
func mkLearnt(s *Solver, lbd int32, lits ...Lit) cref {
	c := s.alloc(lits, true, lbd)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	return c
}

func TestReduceDBSkipsTinyLearntSets(t *testing.T) {
	s := New()
	v := mkVars(s, 8)
	for i := 0; i < 3; i++ {
		mkLearnt(s, 5, MkLit(v[i], false), MkLit(v[i+1], true), MkLit(v[i+2], false))
	}
	s.reduceDB()
	if got := len(s.learnts); got != 3 {
		t.Fatalf("reduceDB touched a %d-clause learnt set: %d left", 3, got)
	}
	if s.stats.Reductions != 0 || s.stats.RemovedClauses != 0 {
		t.Fatalf("reduction counted on a tiny set: %+v", s.stats)
	}
}

func TestReduceDBBoundaryAtFourClauses(t *testing.T) {
	// Exactly four evictable clauses is the smallest set reduceDB acts on:
	// the two worst (highest-LBD) halves go, the better half stays.
	s := New()
	v := mkVars(s, 8)
	mkLearnt(s, 3, MkLit(v[0], false), MkLit(v[1], false), MkLit(v[2], false))
	mkLearnt(s, 4, MkLit(v[1], false), MkLit(v[2], true), MkLit(v[3], false))
	mkLearnt(s, 5, MkLit(v[2], false), MkLit(v[3], true), MkLit(v[4], false))
	mkLearnt(s, 6, MkLit(v[3], false), MkLit(v[4], true), MkLit(v[5], false))
	s.reduceDB()
	if got := len(s.learnts); got != 2 {
		t.Fatalf("expected 2 survivors of 4, got %d", got)
	}
	// Compaction moves the survivors, so identify them by LBD and
	// literals rather than by arena reference.
	if s.clauseLBD(s.learnts[0]) != 3 || s.clauseLBD(s.learnts[1]) != 4 ||
		s.lits(s.learnts[0])[0] != MkLit(v[0], false) || s.lits(s.learnts[1])[0] != MkLit(v[1], false) {
		t.Fatal("reduceDB evicted the low-LBD clauses instead of the high-LBD ones")
	}
	if s.stats.Reductions != 1 || s.stats.RemovedClauses != 2 {
		t.Fatalf("reduction stats wrong: %+v", s.stats)
	}
}

func TestReduceDBNeverEvictsGlueOrBinary(t *testing.T) {
	s := New()
	v := mkVars(s, 12)
	// Four glue clauses (LBD ≤ 2) and four binary clauses: none evictable,
	// so even though the set is large enough, nothing moves.
	for i := 0; i < 4; i++ {
		mkLearnt(s, 2, MkLit(v[i], false), MkLit(v[i+1], true), MkLit(v[i+2], false))
		mkLearnt(s, 9, MkLit(v[i+4], false), MkLit(v[i+5], true))
	}
	s.reduceDB()
	if got := len(s.learnts); got != 8 {
		t.Fatalf("glue/binary clauses evicted: %d of 8 left", got)
	}
}

func TestQuickSelectMedian(t *testing.T) {
	if got := quickSelectMedian(nil); got != 0 {
		t.Fatalf("median(nil) = %v, want 0", got)
	}
	if got := quickSelectMedian([]float64{7}); got != 7 {
		t.Fatalf("median([7]) = %v, want 7", got)
	}
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(20))
		}
		orig := append([]float64(nil), a...)
		got := quickSelectMedian(a)
		sorted := append([]float64(nil), orig...)
		sort.Float64s(sorted)
		if want := sorted[n/2]; got != want {
			t.Fatalf("trial %d: median(%v) = %v, want %v", trial, orig, got, want)
		}
		for i := range a {
			if a[i] != orig[i] {
				t.Fatal("quickSelectMedian mutated its input")
			}
		}
	}
}

func TestBinaryPropagationCounted(t *testing.T) {
	// A pure binary implication chain: v0 → v1 → … → v19. Assuming v0
	// must propagate the whole chain through the binary watch lists.
	s := New()
	const n = 20
	v := mkVars(s, n)
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(v[i], true), MkLit(v[i+1], false))
	}
	ok, err := s.Solve(MkLit(v[0], false))
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	for i := 0; i < n; i++ {
		if s.Value(v[i]) != True {
			t.Fatalf("chain not propagated at v%d", i)
		}
	}
	st := s.Stats()
	if st.BinPropagations < n-1 {
		t.Fatalf("binary propagations %d < chain length %d", st.BinPropagations, n-1)
	}
}

func TestLBDStatsRecorded(t *testing.T) {
	s := New()
	pigeonhole(s, 5)
	if ok, _ := s.Solve(); ok {
		t.Fatal("PHP(5) SAT?")
	}
	st := s.Stats()
	if st.Learnt == 0 {
		t.Fatal("no clauses learned on PHP(5)")
	}
	var hist int64
	for _, h := range st.LBDHist {
		hist += h
	}
	if hist != st.Learnt {
		t.Fatalf("LBD histogram sums to %d, learned %d", hist, st.Learnt)
	}
	if st.LBDSum <= 0 || st.MeanLBD() <= 0 {
		t.Fatalf("LBD sum not recorded: %+v", st)
	}
	if st.LearntLits < st.Learnt {
		t.Fatalf("learned literal count %d below clause count %d", st.LearntLits, st.Learnt)
	}
}

// solveStats builds and solves an instance, returning verdict and stats.
func solveStats(t *testing.T, build func(*Solver)) (bool, Stats) {
	t.Helper()
	s := New()
	build(s)
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return ok, s.Stats()
}

func TestStatsDeterministicAcrossRuns(t *testing.T) {
	builders := map[string]func(*Solver){
		"php5": func(s *Solver) { pigeonhole(s, 5) },
		"random3sat": func(s *Solver) {
			r := rng.New(99)
			vars := mkVars(s, 60)
			for c := 0; c < 255; c++ {
				s.AddClause(
					MkLit(vars[r.Intn(60)], r.Bool()),
					MkLit(vars[r.Intn(60)], r.Bool()),
					MkLit(vars[r.Intn(60)], r.Bool()),
				)
			}
		},
	}
	for name, build := range builders {
		ok1, st1 := solveStats(t, build)
		ok2, st2 := solveStats(t, build)
		if ok1 != ok2 {
			t.Fatalf("%s: verdicts differ across runs", name)
		}
		if st1 != st2 {
			t.Fatalf("%s: stats differ across runs:\n%+v\n%+v", name, st1, st2)
		}
	}
}

// BenchmarkSolverPropagate stresses unit propagation: a deep implication
// ladder of binary clauses with ternary cross-links, triggered by a single
// assumption, so nearly all work is watch-list traversal.
func BenchmarkSolverPropagate(b *testing.B) {
	const n = 1 << 15
	s := New()
	v := mkVars(s, n)
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(v[i], true), MkLit(v[i+1], false))
	}
	for i := 0; i+7 < n; i += 5 {
		s.AddClause(MkLit(v[i], true), MkLit(v[i+3], true), MkLit(v[i+7], false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := s.Solve(MkLit(v[0], false))
		if err != nil || !ok {
			b.Fatalf("Solve = %v, %v", ok, err)
		}
	}
}

// TestResetAfterReduction re-solves PHP(7), whose search compacts the
// clause arena, on the same solver after Reset: each run must repeat the
// first one's verdict and Stats exactly.
func TestResetAfterReduction(t *testing.T) {
	s := New()
	var first Stats
	for run := 0; run < 3; run++ {
		s.Reset()
		pigeonhole(s, 7)
		if ok, err := s.Solve(); ok || err != nil {
			t.Fatalf("run %d: PHP(7) = %v, %v", run, ok, err)
		}
		if run == 0 {
			first = s.Stats()
			if first.Reductions == 0 {
				t.Fatal("PHP(7) never reduced the clause database")
			}
		} else if s.Stats() != first {
			t.Fatalf("run %d after Reset:\n%+v\nfirst run:\n%+v", run, s.Stats(), first)
		}
	}
}
