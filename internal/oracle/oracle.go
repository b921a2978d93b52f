// Package oracle defines the black-box access channel that oracle-guided
// attacks query, together with the ideal (unprotected) implementation.
//
// In the paper's threat model, the attacker owns an activated chip and
// reaches its combinational core through the scan chains ("scan in –
// capture – scan out"). An unprotected chip therefore behaves like Comb:
// every query returns the correct response. The OraP-protected chip
// (package scan / orap) also satisfies Oracle, but its responses are
// computed with a cleared key register — the central difference the
// experiments measure.
//
// The channel is word-parallel: oracles that implement WordOracle carry
// up to 64 patterns per interface crossing, bit-sliced one uint64 lane
// word per input, matching the layout of the sim/ir evaluation kernel.
// Session wraps any oracle with transcript memoisation, a query budget
// and channel telemetry (total/unique patterns, cache hits, modeled
// scan-cycle cost), making the access channel itself measurable.
package oracle

import (
	"fmt"

	"orap/internal/netlist"
	"orap/internal/sim"
)

// Oracle answers combinational input/output queries on an activated chip.
type Oracle interface {
	// NumInputs returns the width of query patterns.
	NumInputs() int
	// NumOutputs returns the width of responses.
	NumOutputs() int
	// Query applies one input pattern and returns the chip's response.
	Query(x []bool) ([]bool, error)
	// Queries returns how many patterns have been queried.
	Queries() int
}

// WordOracle is the batched oracle channel: one call carries up to 64
// patterns. Patterns are bit-sliced: in[i] holds input bit i across the
// batch, with bit p of in[i] being pattern p's value of input i. The
// response uses the same layout over outputs. Lanes at and above n are
// zero in the response. A batch of n patterns advances Queries() by n.
type WordOracle interface {
	Oracle
	// QueryWords applies up to 64 patterns at once; n is the number of
	// valid lanes (1..64).
	QueryWords(in []uint64, n int) ([]uint64, error)
}

// ChannelCost is implemented by oracles whose access channel has a
// modeled per-query clock cost. A scan-protocol oracle reports
// 2·chain-length+1 (shift in, capture, shift out); the ideal direct
// oracle reports 1 (a single capture clock, no chains to traverse).
type ChannelCost interface {
	// QueryCycles returns the modeled test-clock cycles one query costs.
	QueryCycles() int64
}

// LaneMask returns a word with the low n bits set — the valid lanes of
// an n-pattern batch.
func LaneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// PackPattern writes pattern x into lane p of the bit-sliced word
// vector in. len(in) must be at least len(x).
func PackPattern(in []uint64, p int, x []bool) {
	bit := uint64(1) << uint(p)
	for i, v := range x {
		if v {
			in[i] |= bit
		} else {
			in[i] &^= bit
		}
	}
}

// UnpackPattern fills x with lane p of the bit-sliced word vector out.
// len(out) must be at least len(x).
func UnpackPattern(out []uint64, p int, x []bool) {
	for i := range x {
		x[i] = out[i]>>uint(p)&1 == 1
	}
}

// checkBatch validates the shape of a batched query against an oracle.
func checkBatch(o Oracle, in []uint64, n int) error {
	if n < 1 || n > 64 {
		return fmt.Errorf("oracle: batch size %d out of range [1,64]", n)
	}
	if len(in) != o.NumInputs() {
		return fmt.Errorf("oracle: batch width %d != oracle inputs %d", len(in), o.NumInputs())
	}
	return nil
}

// QueryWords sends an n-pattern batch through o's word channel when it
// has one, and falls back to n scalar queries otherwise. Either way the
// responses are bit-identical and lanes at and above n are zero; attacks
// call this helper so they run batched against any Oracle.
func QueryWords(o Oracle, in []uint64, n int) ([]uint64, error) {
	if w, ok := o.(WordOracle); ok {
		return w.QueryWords(in, n)
	}
	if err := checkBatch(o, in, n); err != nil {
		return nil, err
	}
	out := make([]uint64, o.NumOutputs())
	x := make([]bool, o.NumInputs())
	for p := 0; p < n; p++ {
		UnpackPattern(in, p, x)
		y, err := o.Query(x)
		if err != nil {
			return nil, err
		}
		PackPattern(out, p, y)
	}
	return out, nil
}

// Scalarize hides any word-level channel o may have, leaving only the
// scalar Query path. It exists for regression baselines and serial-vs-
// batched benchmark pairs: an attack run against Scalarize(o) crosses
// the oracle interface once per pattern.
func Scalarize(o Oracle) Oracle { return scalarOnly{o} }

type scalarOnly struct{ o Oracle }

func (s scalarOnly) NumInputs() int                 { return s.o.NumInputs() }
func (s scalarOnly) NumOutputs() int                { return s.o.NumOutputs() }
func (s scalarOnly) Query(x []bool) ([]bool, error) { return s.o.Query(x) }
func (s scalarOnly) Queries() int                   { return s.o.Queries() }

// Comb is the ideal oracle: direct combinational evaluation of a circuit
// with the correct key applied. It models unrestricted scan access to an
// unprotected activated chip. The circuit is compiled once at
// construction; queries reuse the evaluator's buffer, and batched
// queries run 64-way word-parallel over the same compiled program.
type Comb struct {
	c       *netlist.Circuit
	eval    *sim.Evaluator
	par     *sim.Parallel // lazily built one-word batch evaluator
	key     []bool
	queries int
}

// NewComb returns an oracle over circuit c unlocked with key. The key
// width must match the circuit; an unkeyed circuit takes a nil key.
func NewComb(c *netlist.Circuit, key []bool) (*Comb, error) {
	if len(key) != c.NumKeys() {
		return nil, fmt.Errorf("oracle: key width %d != circuit %d", len(key), c.NumKeys())
	}
	ev, err := sim.NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	return &Comb{c: c, eval: ev, key: append([]bool(nil), key...)}, nil
}

// NumInputs implements Oracle.
func (o *Comb) NumInputs() int { return o.c.NumInputs() }

// NumOutputs implements Oracle.
func (o *Comb) NumOutputs() int { return o.c.NumOutputs() }

// Query implements Oracle.
func (o *Comb) Query(x []bool) ([]bool, error) {
	o.queries++
	return o.eval.Eval(x, o.key)
}

// QueryWords implements WordOracle: all lanes evaluate in one pass over
// the compiled program.
func (o *Comb) QueryWords(in []uint64, n int) ([]uint64, error) {
	if err := checkBatch(o, in, n); err != nil {
		return nil, err
	}
	if o.par == nil {
		p, err := sim.ForProgram(o.eval.Program(), 1)
		if err != nil {
			return nil, err
		}
		if err := p.SetKey(o.key); err != nil {
			return nil, err
		}
		o.par = p
	}
	prog := o.par.Program()
	for i, id := range prog.PIs {
		o.par.SetInput(int(id), in[i:i+1])
	}
	o.par.Run()
	mask := LaneMask(n)
	out := make([]uint64, prog.NumOutputs())
	for j, id := range prog.POs {
		out[j] = o.par.Value(int(id))[0] & mask
	}
	o.queries += n
	return out, nil
}

// QueryCycles implements ChannelCost: the ideal oracle applies a pattern
// directly, so a query costs a single capture clock.
func (o *Comb) QueryCycles() int64 { return 1 }

// Queries implements Oracle.
func (o *Comb) Queries() int { return o.queries }
