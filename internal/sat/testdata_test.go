package sat

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// corpus pins the verdicts of the DIMACS regression instances under
// testdata/. The files are fixed; any verdict flip is a solver regression.
var corpus = []struct {
	file string
	sat  bool
}{
	{"php-4-3.cnf", false},
	{"php-5-4.cnf", false},
	{"random3sat-sat.cnf", true},
	{"random3sat-unsat.cnf", false},
	{"unit-heavy.cnf", true},
}

// rawClauses parses a DIMACS file with a minimal, solver-independent
// reader, so model validation does not trust ParseDIMACS.
func rawClauses(t *testing.T, path string) [][]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var clauses [][]int
	var cur []int
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "c") || strings.HasPrefix(line, "p") {
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				t.Fatalf("%s: bad literal %q", path, tok)
			}
			if n == 0 {
				clauses = append(clauses, cur)
				cur = nil
				continue
			}
			cur = append(cur, n)
		}
	}
	if len(cur) != 0 {
		t.Fatalf("%s: trailing clause", path)
	}
	return clauses
}

// solveFile parses and solves one corpus instance from scratch.
func solveFile(t *testing.T, path string) (*Solver, bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := ParseDIMACS(f)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return s, ok
}

func TestDIMACSCorpus(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			s, ok := solveFile(t, path)
			if ok != tc.sat {
				t.Fatalf("verdict %v, want %v", ok, tc.sat)
			}
			if tc.sat {
				// Validate the model against the independently parsed
				// clause list: every clause must hold.
				for ci, cl := range rawClauses(t, path) {
					holds := false
					for _, n := range cl {
						v := Var(n - 1)
						if n < 0 {
							v = Var(-n - 1)
						}
						val := s.Value(v)
						if (n > 0 && val == True) || (n < 0 && val == False) {
							holds = true
							break
						}
					}
					if !holds {
						t.Fatalf("model violates clause %d (%v)", ci, cl)
					}
				}
			}
			// Determinism gate: a second fresh run must reproduce the
			// verdict and every solver counter bit for bit.
			s2, ok2 := solveFile(t, path)
			if ok2 != ok {
				t.Fatalf("second run verdict %v, first %v", ok2, ok)
			}
			if s.Stats() != s2.Stats() {
				t.Fatalf("stats differ across runs:\n%+v\n%+v", s.Stats(), s2.Stats())
			}
		})
	}
}

// TestDIMACSCorpusOnResetSolver solves every corpus instance on one
// solver, Reset between instances, each time after a different instance
// than the last: verdict, model and Stats must equal a fresh solver's.
func TestDIMACSCorpusOnResetSolver(t *testing.T) {
	reused := New()
	for i := range corpus {
		for _, tc := range []string{corpus[(i+1)%len(corpus)].file, corpus[i].file} {
			path := filepath.Join("testdata", tc)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			reused.Reset()
			err = reused.readDIMACS(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			ok, err := reused.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := solveFile(t, path)
			if ok != wantOK || reused.Stats() != want.Stats() || !sameModel(reused, want) {
				t.Fatalf("%s after a reset: verdict %v stats %+v, fresh solver %v %+v", tc, ok, reused.Stats(), wantOK, want.Stats())
			}
		}
	}
}
