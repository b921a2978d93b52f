package attack

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
)

// benchLocked builds the shared benchmark fixture: a scaled b20-profile
// circuit under weighted logic locking with an ideal combinational oracle.
func benchLocked(tb testing.TB, scale float64, keyBits int) (*netlist.Circuit, *lock.Locked) {
	tb.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		tb.Fatal(err)
	}
	circuit, err := benchgen.Generate(prof.Scale(scale), 2020)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits:      keyBits,
		ControlWidth: 3,
		KeyGates:     keyBits,
		Rand:         rng.New(2020),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return circuit, l
}

func BenchmarkSATAttackCOI(b *testing.B) {
	orig, l := benchLocked(b, 0.008, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := oracle.NewComb(orig, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := SAT(l.Circuit, o, Budgets{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("COI-miter attack did not converge")
		}
	}
}

// The serial/batched pairs below price the word-parallel oracle channel:
// the serial leg hides the word interface behind oracle.Scalarize, forcing
// one oracle crossing per pattern; the batched leg queries 64 at a time.

func benchSampleDisagreement(b *testing.B, wrap func(oracle.Oracle) oracle.Oracle) {
	orig, l := benchLocked(b, 0.008, 10)
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		b.Fatal(err)
	}
	wrong := make([]bool, l.Circuit.NumKeys())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleDisagreement(l.Circuit, wrong, wrap(o), 1024, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleDisagreementSerial(b *testing.B) {
	benchSampleDisagreement(b, oracle.Scalarize)
}

func BenchmarkSampleDisagreementBatched(b *testing.B) {
	benchSampleDisagreement(b, func(o oracle.Oracle) oracle.Oracle { return o })
}

func benchAppSAT(b *testing.B, wrap func(oracle.Oracle) oracle.Oracle) {
	orig, l := benchLocked(b, 0.008, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := oracle.NewComb(orig, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := AppSAT(l.Circuit, wrap(o), AppSATOptions{
			Budgets: Budgets{MaxIterations: 256},
			Rand:    rng.New(11),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Key == nil {
			b.Fatal("AppSAT returned no key")
		}
	}
}

func BenchmarkAppSATSerial(b *testing.B) {
	benchAppSAT(b, oracle.Scalarize)
}

func BenchmarkAppSATBatched(b *testing.B) {
	benchAppSAT(b, func(o oracle.Oracle) oracle.Oracle { return o })
}
