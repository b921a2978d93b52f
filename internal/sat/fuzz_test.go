package sat

import (
	"strings"
	"testing"
)

// FuzzSolver decodes the fuzz input into a clause set over at most 16
// variables plus an assumption list, solves with a conflict cap, and
// checks the solver's answer: a model must satisfy every clause and
// every assumption, and a second identical run must reproduce the
// verdict and the exact Stats (determinism gate), on a fresh solver and
// on one that solved a different instance and was then Reset.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{3, 0x01, 0x12, 0x83, 0x21}, []byte{0x01})
	f.Add([]byte{8, 0x15, 0x9a, 0x3f, 0x70, 0x88, 0x02}, []byte{0x83, 0x04})
	f.Add([]byte{16, 0xff, 0x00, 0x42, 0x51, 0x66, 0x77, 0x38, 0x29}, []byte{})
	f.Add([]byte{1, 0x80, 0x00}, []byte{0x80})
	f.Fuzz(func(t *testing.T, clauseBytes, assumeBytes []byte) {
		if len(clauseBytes) < 2 || len(clauseBytes) > 256 || len(assumeBytes) > 8 {
			return
		}
		nv := 1 + int(clauseBytes[0]%16)
		// Each remaining byte is one literal: low bits pick the variable,
		// the top bit the sign; a zero byte terminates the current clause.
		decode := func(s *Solver) (*Solver, [][]Lit, []Lit) {
			vars := mkVars(s, nv)
			var clauses [][]Lit
			var cur []Lit
			for _, b := range clauseBytes[1:] {
				if b == 0 {
					if len(cur) > 0 {
						clauses = append(clauses, cur)
						s.AddClause(cur...)
						cur = nil
					}
					continue
				}
				cur = append(cur, MkLit(vars[int(b&0x7f)%nv], b&0x80 != 0))
			}
			if len(cur) > 0 {
				clauses = append(clauses, cur)
				s.AddClause(cur...)
			}
			var assumps []Lit
			for _, b := range assumeBytes {
				assumps = append(assumps, MkLit(vars[int(b&0x7f)%nv], b&0x80 != 0))
			}
			return s, clauses, assumps
		}
		s, clauses, assumps := decode(New())
		s.MaxConflicts = 2000
		ok, err := s.Solve(assumps...)
		if err != nil {
			return // budget exhausted: no verdict to check
		}
		if ok {
			for ci, cl := range clauses {
				holds := false
				for _, l := range cl {
					if s.ValueLit(l) == True {
						holds = true
						break
					}
				}
				if !holds {
					t.Fatalf("model violates clause %d", ci)
				}
			}
			for _, a := range assumps {
				if s.ValueLit(a) != True {
					t.Fatalf("model violates assumption %v", a)
				}
			}
		}
		used := New()
		pigeonhole(used, 4)
		if ok, _ := used.Solve(); ok {
			t.Fatal("PHP(4) SAT?")
		}
		used.Reset()
		for run, s2 := range []*Solver{New(), used} {
			s2, _, assumps2 := decode(s2)
			s2.MaxConflicts = 2000
			ok2, err2 := s2.Solve(assumps2...)
			if err2 != nil {
				t.Fatalf("run %d errored (%v) where the first succeeded", run+2, err2)
			}
			if ok2 != ok {
				t.Fatalf("verdict flipped across identical runs: %v then %v", ok, ok2)
			}
			if s.Stats() != s2.Stats() {
				t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s.Stats(), s2.Stats())
			}
			if !sameModel(s, s2) {
				t.Fatalf("run %d found a different model", run+2)
			}
		}
	})
}

// sameModel reports whether two solvers hold the same model.
func sameModel(a, b *Solver) bool {
	if a.NumVars() != b.NumVars() {
		return false
	}
	for v := Var(0); int(v) < a.NumVars(); v++ {
		if a.Value(v) != b.Value(v) {
			return false
		}
	}
	return true
}

// FuzzParseDIMACS feeds arbitrary text to the DIMACS reader: parsing must
// either fail cleanly or produce a solver whose Solve terminates (the
// instances are tiny, so a full solve is affordable inside the fuzzer).
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 2 2\n1 -2 0\n2 0\n")
	f.Add("c comment\np cnf 1 1\n1 0\n")
	f.Add("1 0")
	f.Add("p cnf 0 0\n")
	f.Add("p cnf 3 1\n1 2 3 0 -1 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		// Cap problem size so hostile inputs cannot allocate wildly.
		if len(src) > 1<<12 || strings.Count(src, "\n") > 256 {
			return
		}
		s, err := ParseDIMACS(strings.NewReader(src))
		if err != nil {
			return
		}
		if s.NumVars() > 64 {
			return // avoid huge random instances in the fuzz loop
		}
		s.MaxConflicts = 1000
		_, _ = s.Solve()
	})
}
