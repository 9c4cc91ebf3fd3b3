package main

import (
	"context"
	"fmt"
	"time"

	"cosim/internal/core"
	"cosim/internal/harness"
	"cosim/internal/sim"
)

// simTime is the simulated duration of every sample of every workload,
// so the three workloads model the same stretch of SoC time and their
// per-simulated-ms figures compare directly.
const simTime = 10 * sim.MS

// workload is one benchmark input: a fixed router case-study
// configuration (4 producers, default clocks) run for simTime. Why each
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// params builds the run's harness parameters for a traffic seed.
	params func(seed int64) harness.Params
	// bounded marks traffic that ends before the run does, so every
	// generated packet must be forwarded and received.
	bounded bool
}

var workloads = []workload{
	{
		name: "dk1-tcp-lockstep",
		params: func(seed int64) harness.Params {
			// 45us per source sits just above one guest's ~40us service
			// limit; 200 packets per source end at 9ms, leaving 1ms of
			// simulated time to drain the last packets.
			return harness.Params{
				Scheme: harness.DriverKernel, Transport: core.TransportTCP,
				SimTime: simTime, Delay: 45 * sim.US, PacketsPerSource: 200,
				Seed: seed,
			}
		},
		bounded: true,
	},
	{
		name: "dk4-ring-fastpath",
		params: func(seed int64) harness.Params {
			return harness.Params{
				Scheme: harness.DriverKernel, Transport: core.TransportRing,
				SimTime: simTime, CPUs: 4, DMI: true, Coalesce: true,
				Quantum: 100 * sim.NS, Delay: 20 * sim.US,
				Seed: seed,
			}
		},
	},
	{
		name: "gk1-tcp",
		params: func(seed int64) harness.Params {
			return harness.Params{
				Scheme: harness.GDBKernel, Transport: core.TransportTCP,
				SimTime: simTime, Delay: 20 * sim.US,
				Seed: seed,
			}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// signature is a run's functional outcome. Runs of one workload and
// seed are meant to repeat it exactly; a second signature is drift.
type signature struct {
	Generated, Forwarded, Received, Messages, Instructions uint64
}

func (s signature) String() string {
	return fmt.Sprintf("generated=%d forwarded=%d received=%d messages=%d instructions=%d",
		s.Generated, s.Forwarded, s.Received, s.Messages, s.Instructions)
}

// sample is one checked run of a workload.
type sample struct {
	res     *harness.Result
	err     error // run error or failed output check
	elapsed time.Duration
	cpu     time.Duration // user+sys of the process across the run
	ticks   cpuTicks      // host CPU ticks across the run
	load    float64       // higher of the 1-min load averages before and after
}

// simMS is the simulated duration of the run in milliseconds.
func (s *sample) simMS() float64 { return float64(s.res.Simulated) / float64(sim.MS) }

// netWall is the kernel's run-loop wall time less the share the host
// stole: steal's share of the host's busy CPU ticks during the run is
// the chance that a runnable thread, the run loop included, was kept
// off its CPU for another guest. On a shared host, steal explains most
// of the run-to-run variation in raw wall time.
func (s *sample) netWall() time.Duration {
	return time.Duration(float64(s.res.Wall) * (1 - s.ticks.stealPct()/100))
}

// setup is host time spent in RunContext outside the kernel's run loop.
func (s *sample) setup() time.Duration { return s.elapsed - s.res.Wall }

func (s *sample) signature() signature {
	r := s.res
	return signature{r.Generated, r.Forwarded, r.Received, r.CoStats.Messages, r.GuestInstructions}
}

// runSample runs w once with tr as its transport (nil keeps the
// workload's own) and checks the outputs.
func runSample(w workload, seed int64, tr core.Transport) *sample {
	p := w.params(seed)
	if tr != nil {
		p.Transport = tr
	}
	s := &sample{}
	cpu0 := processCPU()
	ticks0 := readCPUTicks()
	load0 := loadAvg()
	start := time.Now()
	s.res, s.err = harness.RunContext(context.Background(), p)
	s.elapsed = time.Since(start)
	s.cpu = processCPU() - cpu0
	s.ticks = readCPUTicks().since(ticks0)
	s.load = max(load0, loadAvg())
	if s.err == nil {
		s.err = check(w, s.res)
	}
	return s
}

// check validates a run's outputs: a clean router, some traffic, and on
// bounded workloads every generated packet delivered.
func check(w workload, r *harness.Result) error {
	if r.Corrupted != 0 || r.BadContent != 0 || r.Misrouted != 0 {
		return fmt.Errorf("integrity failure: corrupted=%d bad_content=%d misrouted=%d", r.Corrupted, r.BadContent, r.Misrouted)
	}
	if r.Forwarded == 0 {
		return fmt.Errorf("no packets forwarded")
	}
	if r.Simulated == 0 {
		return fmt.Errorf("no simulated time elapsed")
	}
	if w.bounded && (r.Forwarded != r.Generated || r.Received != r.Generated) {
		return fmt.Errorf("bounded traffic not drained: generated=%d forwarded=%d received=%d", r.Generated, r.Forwarded, r.Received)
	}
	return nil
}
