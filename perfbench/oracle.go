package main

import (
	"fmt"

	"orap/internal/oracle"
)

// timedOracle sits beneath oracle.Session and times every crossing to the
// chip. It exposes exactly the interfaces of what it wraps — WordOracle
// and ChannelCost — so attacks take the same batched path and the session
// meters the same scan cycles as without it.
type timedOracle struct {
	w     oracle.WordOracle
	c     oracle.ChannelCost
	tr    *tracer
	first []bool // the first pattern asked, for the miter replay
}

func newTimedOracle(o oracle.Oracle, tr *tracer) (*timedOracle, error) {
	w, okW := o.(oracle.WordOracle)
	c, okC := o.(oracle.ChannelCost)
	if !okW || !okC {
		return nil, fmt.Errorf("oracle %T lacks the word channel or the channel cost", o)
	}
	return &timedOracle{w: w, c: c, tr: tr}, nil
}

func (t *timedOracle) NumInputs() int     { return t.w.NumInputs() }
func (t *timedOracle) NumOutputs() int    { return t.w.NumOutputs() }
func (t *timedOracle) Queries() int       { return t.w.Queries() }
func (t *timedOracle) QueryCycles() int64 { return t.c.QueryCycles() }

func (t *timedOracle) Query(x []bool) ([]bool, error) {
	if t.first == nil {
		t.first = append([]bool(nil), x...)
	}
	h := t.tr.begin("oracle.query")
	defer t.tr.end(h)
	return t.w.Query(x)
}

func (t *timedOracle) QueryWords(in []uint64, n int) ([]uint64, error) {
	if t.first == nil && n > 0 {
		t.first = make([]bool, t.w.NumInputs())
		oracle.UnpackPattern(in, 0, t.first)
	}
	h := t.tr.begin("oracle.query")
	defer t.tr.end(h)
	return t.w.QueryWords(in, n)
}
