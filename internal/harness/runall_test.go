package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

func sweepScenarios() []Scenario {
	base := Params{Transport: core.TransportRing, Delay: 20 * sim.US, Seed: 1}
	return Table1Scenarios([]sim.Time{500 * sim.US}, base)
}

// TestRunAllMatchesSequential checks the central claim behind
// `benchtab -parallel`: every scenario owns its kernel, ISS and sockets,
// so a parallel sweep reproduces the sequential per-scenario results.
// Generated counts are fully seed-determined; service-side counters
// (Forwarded) depend on wall-clock pacing and may legitimately differ.
func TestRunAllMatchesSequential(t *testing.T) {
	scens := sweepScenarios()
	seq := RunAll(scens, 1)
	par := RunAll(scens, 3)
	if err := FirstError(seq); err != nil {
		t.Fatal(err)
	}
	if err := FirstError(par); err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(scens) || len(par) != len(scens) {
		t.Fatalf("outcome counts %d/%d, want %d", len(seq), len(par), len(scens))
	}
	for i := range scens {
		if seq[i].Scenario.Name != scens[i].Name || par[i].Scenario.Name != scens[i].Name {
			t.Fatalf("outcome %d out of order: %q / %q, want %q",
				i, seq[i].Scenario.Name, par[i].Scenario.Name, scens[i].Name)
		}
		if seq[i].Result.Generated != par[i].Result.Generated {
			t.Errorf("%s: generated %d sequential vs %d parallel",
				scens[i].Name, seq[i].Result.Generated, par[i].Result.Generated)
		}
		m := par[i].Result.Metrics()
		if m.Scheme != scens[i].Params.Scheme.String() || m.Wall() <= 0 || m.Generated == 0 {
			t.Errorf("%s: implausible metrics record %+v", scens[i].Name, m)
		}
	}
}

// TestRunAllCapturesPanics swaps the dispatch function, so it must not
// run in parallel with other tests in this package.
func TestRunAllCapturesPanics(t *testing.T) {
	orig := runScenario
	defer func() { runScenario = orig }()

	wantErr := errors.New("scheme refused")
	runScenario = func(_ context.Context, p Params) (*Result, error) {
		switch p.Seed {
		case 1:
			panic("kernel exploded")
		case 2:
			return nil, wantErr
		}
		return &Result{Params: p}, nil
	}

	scens := []Scenario{
		{Name: "boom", Params: Params{Seed: 1}},
		{Name: "fail", Params: Params{Seed: 2}},
		{Name: "fine", Params: Params{Seed: 3}},
	}
	outs := RunAll(scens, 2)

	if outs[0].Err == nil || !strings.Contains(outs[0].Err.Error(), "kernel exploded") {
		t.Fatalf("panic not captured: %v", outs[0].Err)
	}
	if !strings.Contains(outs[0].Err.Error(), "runall.go") &&
		!strings.Contains(outs[0].Err.Error(), "goroutine") {
		t.Errorf("captured panic lacks a stack trace: %v", outs[0].Err)
	}
	if outs[0].Result != nil {
		t.Error("panicked scenario still carries a result")
	}
	if !errors.Is(outs[1].Err, wantErr) {
		t.Fatalf("plain error not forwarded: %v", outs[1].Err)
	}
	if outs[2].Err != nil || outs[2].Result == nil {
		t.Fatalf("healthy scenario poisoned: %+v", outs[2])
	}
	if err := FirstError(outs); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("FirstError = %v, want the first (panicking) scenario", err)
	}
}

// TestRunAllWorkerClamping also swaps runScenario; not parallel-safe.
func TestRunAllWorkerClamping(t *testing.T) {
	orig := runScenario
	defer func() { runScenario = orig }()
	runScenario = func(_ context.Context, p Params) (*Result, error) {
		return &Result{Params: p}, nil
	}

	var scens []Scenario
	for i := 0; i < 5; i++ {
		scens = append(scens, Scenario{Name: fmt.Sprintf("s%d", i), Params: Params{Seed: int64(i)}})
	}
	for _, workers := range []int{-3, 0, 1, 5, 100} {
		outs := RunAll(scens, workers)
		if len(outs) != len(scens) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(outs), len(scens))
		}
		for i, o := range outs {
			if o.Err != nil || o.Result == nil || o.Result.Params.Seed != int64(i) {
				t.Fatalf("workers=%d outcome %d: %+v", workers, i, o)
			}
		}
	}

	if outs := RunAll(nil, 4); len(outs) != 0 {
		t.Fatalf("empty sweep produced %d outcomes", len(outs))
	}
}
