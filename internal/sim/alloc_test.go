package sim

import (
	"testing"

	"cosim/internal/obs"
)

type allocToken struct{ n int }

// TestKernelSteadyStateAllocs pins the scheduler's steady state at zero
// allocations: once the queues have grown to the model's working set,
// evaluate, update, delta-notify, timed advance, thread switches, CallAt
// and the per-cycle obs span reuse what they have, with the cycle-hook
// timer on and off.
func TestKernelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, timing := range []bool{false, true} {
		name := "untimed"
		if timing {
			name = "timed"
		}
		t.Run(name, func(t *testing.T) { testKernelSteadyStateAllocs(t, timing) })
	}
}

func testKernelSteadyStateAllocs(t *testing.T, timing bool) {
	k := NewKernel("alloc")
	reg := obs.NewRegistry()
	if timing {
		reg.EnableTiming()
	}
	k.SetObs(reg)
	if (k.hookNS != nil) != timing {
		t.Fatalf("timing %v: cycle-hook histogram attached = %v", timing, k.hookNS != nil)
	}
	t.Cleanup(k.Shutdown)

	clk := NewClock(k, "clk", 10*NS)
	sig := NewSignal[int](k, "sig")
	fifo := NewFifo[*allocToken](k, "fifo", 4)
	tok := &allocToken{}
	first, second := k.NewEvent("first"), k.NewEvent("second")
	k.MethodNoInit("edge", func() {
		sig.Write(sig.Read() + 1)
		fifo.TryWrite(tok)
		if fifo.Len() > 2 {
			fifo.TryRead()
		}
		first.NotifyDelta()
	}, clk.Pos())
	k.MethodNoInit("chain", func() { second.NotifyDelta() }, first)
	var chained, ticks, calls int
	k.MethodNoInit("chain_end", func() { chained++ }, second)
	k.Thread("sleeper", func(c *Ctx) {
		for {
			c.WaitTime(7 * NS)
			ticks++
		}
	})
	var call func()
	call = func() {
		calls++
		k.CallAfter(13*NS, call)
	}
	k.CallAfter(13*NS, call)

	if err := k.RunFor(US); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := k.RunFor(US); err != nil {
			t.Fatal(err)
		}
	})
	if chained == 0 || ticks == 0 || calls == 0 || fifo.TotalRead() == 0 {
		t.Fatalf("model idle: chained=%d ticks=%d calls=%d reads=%d", chained, ticks, calls, fifo.TotalRead())
	}
	if allocs != 0 {
		t.Fatalf("steady-state RunFor(1us) allocated %.1f times, want 0", allocs)
	}
}
