package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS emits the solver's problem clauses (not learned clauses) in
// DIMACS CNF format, including the level-0 unit facts. Variables are
// numbered 1-based as DIMACS requires.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	nclauses := len(s.clauses)
	// Level-0 assignments become unit clauses.
	var units []Lit
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			units = append(units, l)
		}
	}
	nclauses += len(units)
	if !s.ok {
		nclauses++ // the empty clause
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), nclauses)
	emit := func(lits []Lit) {
		for _, l := range lits {
			v := int(l.Var()) + 1
			if l.Neg() {
				v = -v
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, "0")
	}
	for _, u := range units {
		emit([]Lit{u})
	}
	for _, c := range s.clauses {
		emit(s.lits(c))
	}
	if !s.ok {
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// ParseDIMACS reads a DIMACS CNF problem into a fresh solver. Comment
// lines ("c …") and the problem line ("p cnf V C") are handled; variables
// beyond the declared count are allocated on demand.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	if err := s.readDIMACS(r); err != nil {
		return nil, err
	}
	return s, nil
}

// readDIMACS adds a DIMACS CNF problem to the solver.
func (s *Solver) readDIMACS(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var clause []Lit
	lineno := 0
	ensure := func(v int) Var {
		for s.NumVars() < v {
			s.NewVar()
		}
		return Var(v - 1)
	}
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return fmt.Errorf("sat: dimacs:%d: malformed problem line %q", lineno, line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return fmt.Errorf("sat: dimacs:%d: bad variable count", lineno)
			}
			ensure(nv)
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return fmt.Errorf("sat: dimacs:%d: bad literal %q", lineno, tok)
			}
			if n == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			clause = append(clause, MkLit(ensure(v), n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sat: dimacs read: %w", err)
	}
	if len(clause) != 0 {
		return fmt.Errorf("sat: dimacs: trailing clause without terminating 0")
	}
	return nil
}
