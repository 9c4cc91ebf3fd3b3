package harness

import (
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

// TestDriverKernelAllocsPerCycle bounds what a fast-path Driver-Kernel
// run allocates, across the kernel, the scheme and the guests, at fewer
// than one allocation per simulation cycle: the kernel's steady state
// allocates nothing, so what remains is per-message work, not per-cycle.
// The bound holds with the wall-clock timers on and off.
func TestDriverKernelAllocsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, timing := range []bool{false, true} {
		name := "untimed"
		if timing {
			name = "timed"
		}
		t.Run(name, func(t *testing.T) { testDriverKernelAllocsPerCycle(t, timing) })
	}
}

func testDriverKernelAllocsPerCycle(t *testing.T, timing bool) {
	res, err := Run(Params{
		Scheme: DriverKernel, Transport: core.TransportRing,
		SimTime: 2 * sim.MS, Delay: 20 * sim.US, Seed: 1,
		CPUs: 2, DMI: true, Coalesce: true, Quantum: 100 * sim.NS,
		Timing: timing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Counters["sim.cycle_hook_ns.count"]; ok != timing {
		t.Fatalf("timing %v: sim.cycle_hook_ns.count present = %v", timing, ok)
	}
	cycles := res.Counters["sim.cycles"]
	if cycles == 0 {
		t.Fatal("run recorded no sim.cycles")
	}
	t.Logf("%d allocs over %d cycles (%.3f per cycle)", res.Allocs, cycles, float64(res.Allocs)/float64(cycles))
	if res.Allocs >= cycles {
		t.Fatalf("%d allocs over %d cycles, want fewer than one per cycle", res.Allocs, cycles)
	}
}
