package oracle

import (
	"testing"

	"orap/internal/circuits"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/scan"
	"orap/internal/sim"
)

func TestCombOracleMatchesSimulation(t *testing.T) {
	c := circuits.C17()
	o, err := NewComb(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 32; v++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = v>>uint(i)&1 == 1
		}
		got, err := o.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := sim.Eval(c, x, nil)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("input %05b output %d differs", v, j)
			}
		}
	}
	if o.Queries() != 32 {
		t.Fatalf("query count = %d, want 32", o.Queries())
	}
}

func TestCombOracleKeyWidthChecked(t *testing.T) {
	c := circuits.C17()
	if _, err := NewComb(c, []bool{true}); err == nil {
		t.Fatal("key width mismatch accepted")
	}
}

// protectedChip builds a locked adder behind the requested protection and
// returns (original, locked, chip). testing.TB so benchmarks share it.
func protectedChip(t testing.TB, prot scan.Protection, seed uint64) (*netlist.Circuit, *lock.Locked, *scan.Chip) {
	t.Helper()
	orig := circuits.RippleAdder(4)
	l, err := lock.RandomXOR(orig, 8, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := orap.Protect(l.Circuit, l.Key, 5, 1, prot, orap.Options{Rand: rng.New(seed + 100)})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Unlock(nil); err != nil {
		t.Fatal(err)
	}
	return orig, l, ch
}

func TestScanOracleUnprotectedGivesCorrectResponses(t *testing.T) {
	orig, _, ch := protectedChip(t, scan.None, 1)
	o := NewScan(ch)
	r := rng.New(2)
	x := make([]bool, o.NumInputs())
	for trial := 0; trial < 25; trial++ {
		r.Bits(x)
		got, err := o.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := sim.Eval(orig, x, nil)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: unprotected scan oracle returned a wrong bit", trial)
			}
		}
	}
}

func TestScanOracleOraPGivesLockedResponses(t *testing.T) {
	// The paper's central claim: on an OraP chip, scan-based queries see
	// the circuit under a cleared key register, never the correct key.
	for _, prot := range []scan.Protection{scan.OraPBasic, scan.OraPModified} {
		orig, l, ch := protectedChip(t, prot, 3)
		o := NewScan(ch)
		r := rng.New(4)
		x := make([]bool, o.NumInputs())
		zeroKey := make([]bool, l.Circuit.NumKeys())
		sawCorruption := false
		for trial := 0; trial < 25; trial++ {
			r.Bits(x)
			got, err := o.Query(x)
			if err != nil {
				t.Fatal(err)
			}
			// Responses must match the LOCKED circuit with the cleared
			// (all-zero) key…
			wantLocked, _ := sim.Eval(l.Circuit, x, zeroKey)
			for j := range wantLocked {
				if got[j] != wantLocked[j] {
					t.Fatalf("%v trial %d: response is not the locked-circuit response", prot, trial)
				}
			}
			// …and must diverge from the correct function somewhere.
			wantTrue, _ := sim.Eval(orig, x, nil)
			for j := range wantTrue {
				if got[j] != wantTrue[j] {
					sawCorruption = true
				}
			}
		}
		if !sawCorruption {
			t.Fatalf("%v: zero-key responses coincided with the correct function on all samples", prot)
		}
	}
}

func TestScanOracleChipStaysProtectedAfterManyQueries(t *testing.T) {
	_, _, ch := protectedChip(t, scan.OraPBasic, 5)
	o := NewScan(ch)
	x := make([]bool, o.NumInputs())
	for i := 0; i < 10; i++ {
		if _, err := o.Query(x); err != nil {
			t.Fatal(err)
		}
	}
	if ch.Unlocked() {
		t.Fatal("chip believes it is unlocked after scan queries")
	}
	for _, b := range ch.Key() {
		if b {
			t.Fatal("key register non-zero after scan queries")
		}
	}
}

func TestScanOracleQueryWidthChecked(t *testing.T) {
	_, _, ch := protectedChip(t, scan.None, 6)
	o := NewScan(ch)
	if _, err := o.Query(make([]bool, 3)); err == nil {
		t.Fatal("wrong query width accepted")
	}
}
