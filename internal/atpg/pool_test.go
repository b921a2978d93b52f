package atpg

import (
	"slices"
	"sync"
	"testing"

	"orap/internal/benchgen"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/rng"
)

// campaignOpts is the Table II benchmark's low backtrack limit, so the
// post-random fault lists below hold detected, redundant and aborted
// faults alike.
var campaignOpts = Options{ConflictBudget: 300}

// campaign generates a benchgen circuit and runs the random phase of the
// Table II flow on it, leaving the faults ATPG targets.
func campaign(tb testing.TB, name string, scale float64, seed uint64) (*netlist.Circuit, *faultsim.Simulator, faultsim.Result) {
	tb.Helper()
	p, err := benchgen.ProfileByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := benchgen.Generate(p.Scale(scale), seed)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := faultsim.New(c)
	if err != nil {
		tb.Fatal(err)
	}
	sim.Workers = 1
	return c, sim, sim.RunRandom(faultsim.CollapseFaults(c), 4, rng.New(seed))
}

// target is one program with the faults ATPG targets on it.
type target struct {
	prog   *ir.Program
	faults []faultsim.Fault
}

// twoTargets returns two post-random fault lists on programs of
// different sizes, the smaller first.
func twoTargets(t *testing.T) [2]target {
	t.Helper()
	_, simA, rrA := campaign(t, "b20", 0.004, 1)
	_, simB, rrB := campaign(t, "s38584", 0.03, 1)
	ts := [2]target{{simA.Program(), rrA.Remaining}, {simB.Program(), rrB.Remaining}}
	if ts[0].prog.NumNodes() >= ts[1].prog.NumNodes() {
		t.Fatalf("programs of %d and %d nodes: want the first smaller", ts[0].prog.NumNodes(), ts[1].prog.NumNodes())
	}
	return ts
}

// fresh solves a fault on a new solver and new scratch, the reference
// every reused path must reproduce.
func fresh(t *testing.T, prog *ir.Program, f faultsim.Fault) Outcome {
	t.Helper()
	out, err := newConeScratch().generate(prog, f, campaignOpts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameOutcome(a, b Outcome) bool {
	return a.Fault == b.Fault && a.Class == b.Class && slices.Equal(a.Pattern, b.Pattern) && a.Solver == b.Solver
}

// interleave calls visit on the faults of both targets alternately.
func interleave(ts [2]target, visit func(prog *ir.Program, f faultsim.Fault)) {
	for i := 0; i < len(ts[0].faults) || i < len(ts[1].faults); i++ {
		for _, tg := range ts {
			if i < len(tg.faults) {
				visit(tg.prog, tg.faults[i])
			}
		}
	}
}

func TestReusedScratchMatchesFreshSolver(t *testing.T) {
	ts := twoTargets(t)
	held := newConeScratch()
	var classes [3]int
	interleave(ts, func(prog *ir.Program, f faultsim.Fault) {
		want := fresh(t, prog, f)
		classes[want.Class]++
		for _, path := range []struct {
			name string
			run  func() (Outcome, error)
		}{
			{"pooled", func() (Outcome, error) { return GenerateProgram(prog, f, campaignOpts) }},
			{"held", func() (Outcome, error) { return held.generate(prog, f, campaignOpts) }},
		} {
			got, err := path.run()
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutcome(got, want) {
				t.Fatalf("%s %v on %d nodes: got %v %v %+v, fresh solver %v %v %+v",
					path.name, f, prog.NumNodes(), got.Class, got.Pattern, got.Solver, want.Class, want.Pattern, want.Solver)
			}
		}
	})
	if classes[Detected] == 0 || classes[Redundant] == 0 || classes[Aborted] == 0 {
		t.Fatalf("classes %v: want detected, redundant and aborted faults", classes)
	}
}

func TestScratchEpochWrap(t *testing.T) {
	ts := twoTargets(t)
	sc := newConeScratch()
	interleave(ts, func(prog *ir.Program, f faultsim.Fault) {
		sc.generate(prog, f, campaignOpts) // fill the stamps of both programs
	})
	sc.epoch = ^uint32(0) - 1
	interleave(ts, func(prog *ir.Program, f faultsim.Fault) {
		got, err := sc.generate(prog, f, campaignOpts)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(t, prog, f); !sameOutcome(got, want) {
			t.Fatalf("%v after epoch wrap: got %v %+v, fresh solver %v %+v", f, got.Class, got.Solver, want.Class, want.Solver)
		}
	})
}

// TestGenerateProgramConcurrent runs GenerateProgram on two programs
// from several goroutines at once, as exp.TableII does with Workers > 1:
// pooled scratch must never leak between calls.
func TestGenerateProgramConcurrent(t *testing.T) {
	ts := twoTargets(t)
	type job struct {
		prog *ir.Program
		f    faultsim.Fault
		want Outcome
	}
	var jobs []job
	interleave(ts, func(prog *ir.Program, f faultsim.Fault) {
		if len(jobs) < 400 {
			jobs = append(jobs, job{prog, f, fresh(t, prog, f)})
		}
	})
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i*7+w*len(jobs)/workers)%len(jobs)]
				got, err := GenerateProgram(j.prog, j.f, campaignOpts)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameOutcome(got, j.want) {
					t.Errorf("worker %d, %v: got %v %+v, fresh solver %v %+v", w, j.f, got.Class, got.Solver, j.want.Class, j.want.Solver)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWarmGenerateProgramAllocs pins the steady state of a campaign: once
// the pooled solver and scratch have grown to the circuit, proving a
// fault redundant allocates nothing.
func TestWarmGenerateProgramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ts := twoTargets(t)
	prog := ts[0].prog
	for _, f := range ts[0].faults {
		out, err := GenerateProgram(prog, f, campaignOpts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Class != Redundant {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := GenerateProgram(prog, f, campaignOpts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("warm GenerateProgram on redundant %v: %v allocations, want 0", f, allocs)
		}
		return
	}
	t.Fatal("no redundant fault among the targets")
}

// BenchmarkATPGCampaign runs the SAT phase of the Table II flow on a
// fixed benchgen circuit; -benchmem shows what a campaign allocates.
func BenchmarkATPGCampaign(b *testing.B) {
	c, sim, rr := campaign(b, "s38584", 0.03, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, sim, rr, campaignOpts); err != nil {
			b.Fatal(err)
		}
	}
}
