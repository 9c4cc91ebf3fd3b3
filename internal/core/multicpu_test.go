package core_test

import (
	"fmt"
	"testing"

	"cosim/internal/core"
	"cosim/internal/harness"
	"cosim/internal/sim"
)

// TestDriverKernelMultiCPU4Ring runs the Driver-Kernel with four RTOS
// guests on the ring transport: four reader goroutines post into the
// shared inbox while the kernel drains it, so under -race this covers
// the mail flag, the inbox swap and the reader-error hand-off. The
// message-path cell sends every port access through the inbox; the
// fast-path cell is the DMI + coalescing + quantum configuration.
func TestDriverKernelMultiCPU4Ring(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fastPath bool
	}{{"messages", false}, {"fastpath", true}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := harness.Run(harness.Params{
				Scheme: harness.DriverKernel, Transport: core.TransportRing,
				SimTime: sim.MS, Delay: 20 * sim.US, CPUs: 4, Seed: 3,
				Quantum: 100 * sim.NS, DMI: tc.fastPath, Coalesce: tc.fastPath,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Forwarded == 0 {
				t.Fatal("no packets forwarded")
			}
			if res.BadContent != 0 || res.Misrouted != 0 || res.Corrupted != 0 {
				t.Fatalf("integrity violated: bad %d misrouted %d corrupted %d", res.BadContent, res.Misrouted, res.Corrupted)
			}
			var perCPU uint64
			for i := 0; i < 4; i++ {
				n := res.Counters[fmt.Sprintf("driver.cpu%d.messages", i)]
				if !tc.fastPath && n == 0 {
					t.Errorf("driver.cpu%d.messages = 0: every CPU should carry traffic", i)
				}
				perCPU += n
			}
			if got := res.Counters["driver.messages"]; got != perCPU {
				t.Errorf("driver.messages = %d, per-CPU sum = %d", got, perCPU)
			}
			if res.CoStats.StallEscapes != 0 {
				t.Errorf("%d stall escapes", res.CoStats.StallEscapes)
			}
		})
	}
}
