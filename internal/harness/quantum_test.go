package harness

import (
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

// quantumCells is the temporal-decoupling ablation matrix (benchtab's
// `-ablate quantum` axis): lock-step, one CPU period (the default
// 10ns), and ten CPU periods — the regime where decoupling should pay.
var quantumCells = []struct {
	name    string
	quantum sim.Time
}{
	{"lockstep", 0},
	{"1x", 10 * sim.NS},
	{"10x", 100 * sim.NS},
}

// quantumParams is the bounded-workload configuration of dmiParams with
// a temporal-decoupling quantum: every source injects a fixed packet
// count and the horizon is generous, so the functional outcome cannot
// depend on the synchronization cadence — only the wall clock may.
func quantumParams(q sim.Time) Params {
	return Params{
		Scheme: DriverKernel, Transport: core.TransportRing,
		SimTime: 20 * sim.MS, Delay: 200 * sim.US,
		PacketsPerSource: 10, Seed: 77, CPUs: 2,
		Quantum: q,
	}
}

// TestQuantumAblationDeterministic runs the quantum cells at 2 CPUs and
// checks that temporal decoupling is functionally invisible: every cell
// produces the same packet signature, clean router checksums, and the
// same forwarded/message totals — the quantum changes only how often
// the driver and kernel synchronize, never what either computes. The
// -race builds of this test double as the concurrency check on the
// guest goroutines a decoupled driver runs ahead of the kernel.
func TestQuantumAblationDeterministic(t *testing.T) {
	var base *signature
	var baseMsgs uint64
	for _, cell := range quantumCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			res, err := Run(quantumParams(cell.quantum))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			sig := signatureOf(res)
			if sig.Forwarded == 0 || sig.Forwarded != sig.Generated {
				t.Fatalf("bounded workload did not complete: %+v", sig)
			}
			if sig.BadContent != 0 || sig.Misrouted != 0 || sig.Corrupted != 0 {
				t.Fatalf("router checksum/integrity failures: %+v", sig)
			}
			msgs := res.Counters["driver.messages"]
			if base == nil {
				base, baseMsgs = &sig, msgs
				return
			}
			if *base != sig {
				t.Fatalf("cell %s diverged:\n base %+v\n cell %+v", cell.name, *base, sig)
			}
			if msgs != baseMsgs {
				t.Fatalf("cell %s moved %d driver messages, lock-step moved %d", cell.name, msgs, baseMsgs)
			}
		})
	}
}

// TestQuantumRerunBitIdentical reruns one decoupled cell and requires
// the functional signature and every simulated-time-driven counter to
// repeat exactly: quantum boundary syncs must be deterministic run to
// run, not merely functionally equivalent.
// (Wall-clock-paced counters — ISS instruction totals, early-sync
// breaks — legitimately vary, as they always have under the
// free-running guest.)
func TestQuantumRerunBitIdentical(t *testing.T) {
	first, err := Run(quantumParams(100 * sim.NS))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := Run(quantumParams(100 * sim.NS))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if signatureOf(first) != signatureOf(second) {
		t.Fatalf("signatures diverged across reruns:\n %+v\n %+v", signatureOf(first), signatureOf(second))
	}
	for _, k := range []string{
		"driver.messages", "driver.cpu0.messages", "driver.cpu1.messages",
		"driver.interrupts", "driver.quantum_syncs",
		"driver.cpu0.quantum_syncs", "driver.cpu1.quantum_syncs",
	} {
		if v, w := first.Counters[k], second.Counters[k]; v != w {
			t.Errorf("counter %s: %d then %d", k, v, w)
		}
	}
}

// TestQuantumCountersReconcile pins the accounting: a decoupled run
// counts boundary syncs (and reconciles them per CPU), a lock-step run
// counts none, and the Stats mirror the registry.
func TestQuantumCountersReconcile(t *testing.T) {
	lockstep, err := Run(quantumParams(0))
	if err != nil {
		t.Fatalf("lock-step run: %v", err)
	}
	decoupled, err := Run(quantumParams(100 * sim.NS))
	if err != nil {
		t.Fatalf("decoupled run: %v", err)
	}

	if s := lockstep.Counters["driver.quantum_syncs"]; s != 0 {
		t.Fatalf("lock-step counted %d quantum syncs", s)
	}
	if b := lockstep.Counters["driver.quantum_breaks"]; b != 0 {
		t.Fatalf("lock-step counted %d quantum breaks", b)
	}
	syncs := decoupled.Counters["driver.quantum_syncs"]
	if syncs == 0 {
		t.Fatal("decoupled run counted no quantum syncs")
	}
	if decoupled.CoStats.QuantumSyncs != syncs {
		t.Fatalf("Stats.QuantumSyncs %d != counter %d", decoupled.CoStats.QuantumSyncs, syncs)
	}
	if decoupled.CoStats.QuantumBreaks != decoupled.Counters["driver.quantum_breaks"] {
		t.Fatalf("Stats.QuantumBreaks %d != counter %d",
			decoupled.CoStats.QuantumBreaks, decoupled.Counters["driver.quantum_breaks"])
	}

	// Per-CPU counters reconcile with the aggregates (the CI smoke
	// matrix asserts the same identity via jq).
	for _, metric := range []string{"quantum_syncs", "quantum_breaks"} {
		var sum uint64
		for cpu := 0; cpu < 2; cpu++ {
			sum += decoupled.Counters[perCPUName(cpu, metric)]
		}
		if agg := decoupled.Counters["driver."+metric]; sum != agg {
			t.Errorf("per-CPU %s sum %d != aggregate %d", metric, sum, agg)
		}
	}
}

// TestQuantumWithFastPath crosses temporal decoupling with the memory
// fast path: DMI windows plus coalescing under a 10x quantum must still
// produce the lock-step signature, exercising the revocation and
// served-read early-sync breaks alongside batched flushes.
func TestQuantumWithFastPath(t *testing.T) {
	plain, err := Run(quantumParams(0))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	p := quantumParams(100 * sim.NS)
	p.DMI, p.Coalesce = true, true
	fast, err := Run(p)
	if err != nil {
		t.Fatalf("fast-path run: %v", err)
	}
	if signatureOf(plain) != signatureOf(fast) {
		t.Fatalf("fast path under quantum diverged:\n base %+v\n fast %+v",
			signatureOf(plain), signatureOf(fast))
	}
	if fast.Counters["driver.dmi_hits"] == 0 {
		t.Fatal("no DMI hits with windows granted under quantum")
	}
}
