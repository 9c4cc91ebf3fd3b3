package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"cosim/internal/core"
	"cosim/internal/sim"
)

// memProfileRate is the allocation sampling interval of the traced
// phase: finer than the runtime's 512 KiB default, so the per-layer
// split of a 10ms run rests on thousands of samples, not dozens.
const memProfileRate = 64 << 10

// runtime/metrics read around the traced phase.
const (
	rmGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	rmSched   = "/sched/latencies:seconds"
	rmMallocs = "/gc/heap/allocs:objects"
)

// probe is the state read before the traced phase and again after it.
type probe struct {
	rm    []metrics.Sample
	cpu   time.Duration
	ticks cpuTicks
}

func readProbe() probe {
	p := probe{rm: []metrics.Sample{{Name: rmGCCPU}, {Name: rmSched}, {Name: rmMallocs}}}
	metrics.Read(p.rm)
	p.cpu = processCPU()
	p.ticks = readCPUTicks()
	return p
}

// trace is what the traced phase measured from outside the program.
type trace struct {
	samples   []*sample
	transport string // the workload transport's name
	times     *transportTimes
	cpuNS     map[string]int64   // profiled CPU per layer
	allocB    map[string]float64 // estimated bytes allocated per layer
	rusage    time.Duration      // process CPU across the phase
	gcCPU     float64            // runtime GC CPU seconds
	schedP50  float64            // goroutine scheduling latency, seconds
	mallocs   uint64
	steal     cpuTicks
}

// runTraced runs w until deadline under a CPU profile, an allocation
// profile and the timing transport, and reads runtime/metrics and
// rusage around the whole phase. It runs at least one sample.
func runTraced(w workload, seed int64, deadline time.Time) (*trace, error) {
	t := &trace{}
	timed := newTimedTransport(w.params(seed).Transport)
	t.transport, t.times = timed.Name(), timed.times

	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	defer func() { runtime.MemProfileRate = prevRate }()
	alloc0 := readAllocs()

	var prof bytes.Buffer
	before := readProbe()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	for {
		t.samples = append(t.samples, runSample(w, seed, timed))
		if !time.Now().Before(deadline) {
			break
		}
	}
	pprof.StopCPUProfile()
	after := readProbe()
	allocs := readAllocs().since(alloc0)

	t.rusage = after.cpu - before.cpu
	t.steal = after.ticks.since(before.ticks)
	t.gcCPU = after.rm[0].Value.Float64() - before.rm[0].Value.Float64()
	t.schedP50 = histDeltaP50(before.rm[1].Value.Float64Histogram(), after.rm[1].Value.Float64Histogram())
	t.mallocs = after.rm[2].Value.Uint64() - before.rm[2].Value.Uint64()

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	t.cpuNS = attribute(samples)
	t.allocB = allocs.byLayer(memProfileRate)
	return t, nil
}

// histDeltaP50 is the median of the observations a cumulative
// runtime/metrics histogram gained between two reads, interpolated
// within its bucket.
func histDeltaP50(h0, h1 *metrics.Float64Histogram) float64 {
	var total uint64
	for i := range h1.Counts {
		total += h1.Counts[i] - h0.Counts[i]
	}
	if total == 0 {
		return 0
	}
	half := float64(total) / 2
	var cum float64
	for i := range h1.Counts {
		c := float64(h1.Counts[i] - h0.Counts[i])
		if c > 0 && cum+c >= half {
			lo, hi := h1.Buckets[i], h1.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi
			case math.IsInf(hi, 1):
				return lo
			}
			return lo + (hi-lo)*(half-cum)/c
		}
		cum += c
	}
	return 0
}

// allocKey identifies one allocation-profile bucket: the runtime keeps
// a bucket per (stack, object size).
type allocKey struct {
	stack [32]uintptr
	size  int64
}

type allocSnapshot map[allocKey]int64 // bucket -> objects allocated

// readAllocs snapshots the allocation profile. The runtime publishes
// allocations to it at the end of a GC cycle and the profile may lag
// by two cycles, so two forced collections come first.
func readAllocs() allocSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(allocSnapshot, len(recs))
	for _, r := range recs {
		if r.AllocObjects > 0 {
			out[allocKey{r.Stack0, r.AllocBytes / r.AllocObjects}] += r.AllocObjects
		}
	}
	return out
}

// since is the per-bucket object delta from an earlier snapshot.
func (s allocSnapshot) since(earlier allocSnapshot) allocSnapshot {
	out := make(allocSnapshot, len(s))
	for k, n := range s {
		if d := n - earlier[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// byLayer estimates the bytes allocated per layer: each bucket's
// sampled bytes scaled up by the inverse of the probability that an
// object of its size is sampled at the given rate (the correction
// pprof applies), charged to the innermost cosim/internal frame.
func (s allocSnapshot) byLayer(rate int) map[string]float64 {
	out := map[string]float64{}
	for k, objs := range s {
		size := float64(k.size)
		scale := 1 / (1 - math.Exp(-size/float64(rate)))
		out[pcLayer(k.stack[:])] += float64(objs) * size * scale
	}
	return out
}

// pcLayer is stackLayer over a program-counter stack.
func pcLayer(stack []uintptr) string {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	var funcs []string
	frames := runtime.CallersFrames(stack[:n])
	for {
		f, more := frames.Next()
		funcs = append(funcs, f.Function)
		if !more {
			break
		}
	}
	return stackLayer(funcs)
}

// ledger computes the per-layer metrics of the traced phase and runs
// the ledger's self-checks. Times are host ms and counts are events,
// both per simulated ms, unless the name says otherwise.
func (r *report) ledger(t *trace, traced []*sample, untracedWall float64) []metric {
	var simMS, wallSum, generated, forwarded, received, latPS float64
	var st core.Stats
	c := map[string]float64{}
	for _, s := range traced {
		res := s.res
		simMS += s.simMS()
		wallSum += ms(res.Wall)
		for k, v := range res.Counters {
			c[k] += float64(v)
		}
		st.Messages += res.CoStats.Messages
		st.Stops += res.CoStats.Stops
		st.QuantumSyncs += res.CoStats.QuantumSyncs
		st.QuantumBreaks += res.CoStats.QuantumBreaks
		st.DMIHits += res.CoStats.DMIHits
		st.DMIMisses += res.CoStats.DMIMisses
		generated += float64(res.Generated)
		forwarded += float64(res.Forwarded)
		received += float64(res.Received)
		latPS += float64(res.MeanLat) * float64(res.Received)
	}
	per := func(v float64) float64 { return v / simMS }
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	cpuMS := func(layer string) float64 { return per(float64(t.cpuNS[layer]) / 1e6) }
	allocMB := func(layer string) float64 { return per(t.allocB[layer] / 1e6) }

	hookMS := c["sim.cycle_hook_ns.sum"] / 1e6
	transportOps := float64(t.times.writes.Load() + t.times.reads.Load())
	var profiled int64
	for _, ns := range t.cpuNS {
		profiled += ns
	}
	tracedWall := summarize(perSimMS(traced, netWallMS)).median

	out := []metric{
		{name: "sim.cpu_ms", unit: "ms/ms", value: cpuMS("sim")},
		{name: "sim.eval_ms", unit: "ms/ms", value: per(wallSum - hookMS)},
		{name: "sim.hook_ms", unit: "ms/ms", value: per(hookMS)},
		{name: "sim.delta_cycles", unit: "1/ms", value: per(c["sim.delta_cycles"])},
		{name: "sim.activations", unit: "1/ms", value: per(c["sim.activations"])},
		{name: "sim.cluster_merges", unit: "1/ms", value: per(c["sim.cluster_merges"])},
		{name: "sim.alloc_mb", unit: "MB/ms", value: allocMB("sim")},
		{name: "iss.cpu_ms", unit: "ms/ms", value: cpuMS("iss")},
		{name: "iss.instructions", unit: "1/ms", value: per(c["iss.instructions"])},
		{name: "iss.ns_per_instr", unit: "ns", value: share(float64(t.cpuNS["iss"]), c["iss.instructions"])},
		{name: "iss.decode_cache_hit_ratio", unit: "ratio", value: share(c["iss.decode_cache_hits"], c["iss.decode_cache_hits"]+c["iss.decode_cache_misses"])},
		{name: "core.cpu_ms", unit: "ms/ms", value: cpuMS("core")},
		{name: "core.messages", unit: "1/ms", value: per(float64(st.Messages))},
		{name: "core.sync_wait_ms", unit: "ms/ms", value: per((c["driver.skew_wait_ns.sum"] + c["cosim.skew_wait_ns.sum"]) / 1e6)},
		{name: "core.sync_waits", unit: "1/ms", value: per(c["driver.skew_waits"] + c["cosim.skew_waits"])},
		{name: "core.quantum_syncs", unit: "1/ms", value: per(float64(st.QuantumSyncs))},
		{name: "core.quantum_breaks", unit: "1/ms", value: per(float64(st.QuantumBreaks))},
		{name: "core.dmi_hit_ratio", unit: "ratio", value: share(float64(st.DMIHits), float64(st.DMIHits+st.DMIMisses))},
		{name: "core.stops", unit: "1/ms", value: per(float64(st.Stops))},
		{name: "core.alloc_mb", unit: "MB/ms", value: allocMB("core")},
		{name: "transport.cpu_ms", unit: "ms/ms", value: cpuMS("transport")},
		{name: "transport.write_ms", unit: "ms/ms", value: per(float64(t.times.writeNS.Load()) / 1e6)},
		{name: "transport.read_wait_ms", unit: "ms/ms", value: per(float64(t.times.readNS.Load()) / 1e6)},
		{name: "transport.ops", unit: "1/ms", value: per(transportOps)},
		{name: "transport.bytes_per_op", unit: "B", value: share(float64(t.times.bytes.Load()), transportOps)},
		{name: "transport.batched_msgs", unit: "1/ms", value: per(c["transport."+t.transport+".batched_msgs"])},
		{name: "gdb.cpu_ms", unit: "ms/ms", value: cpuMS("gdb")},
		{name: "gdb.round_trips", unit: "1/ms", value: per(c["rsp.round_trips"])},
		{name: "gdb.packets", unit: "1/ms", value: per(c["rsp.packets_sent"] + c["rsp.packets_recv"])},
		{name: "gdb.retransmits", unit: "1/ms", value: per(c["rsp.retransmits"])},
		{name: "dev.cpu_ms", unit: "ms/ms", value: cpuMS("dev")},
		{name: "rtos.cpu_ms", unit: "ms/ms", value: cpuMS("rtos")},
		{name: "router.cpu_ms", unit: "ms/ms", value: cpuMS("router")},
		{name: "obs.cpu_ms", unit: "ms/ms", value: cpuMS("obs")},
		{name: "other.cpu_ms", unit: "ms/ms", value: cpuMS("other")},
		{name: "router.forwarded_pct", unit: "%", value: 100 * share(forwarded, generated)},
		{name: "router.mean_latency_us", unit: "us", value: share(latPS, received) / float64(sim.US)},
		{name: "runtime.cpu_ms", unit: "ms/ms", value: cpuMS("runtime")},
		{name: "runtime.gc_cpu_ms", unit: "ms/ms", value: per(t.gcCPU * 1e3)},
		{name: "runtime.sched_latency_p50_us", unit: "us", value: t.schedP50 * 1e6},
		{name: "runtime.allocs_per_cycle", unit: "count", value: share(float64(t.mallocs), c["sim.cycles"])},
		{name: "ledger.coverage_pct", unit: "%", value: 100 * share(float64(profiled), float64(t.rusage))},
		{name: "trace.overhead_pct", unit: "%", value: 100 * (tracedWall/untracedWall - 1)},
		{name: "host.steal_ms", unit: "ms/ms", value: per(t.steal.stealMS())},
	}

	// Self-checks. eval + hook is the traced raw wall by construction;
	// what can fail is the cycle-hook histogram summing to more than the
	// run.
	wall := per(wallSum)
	if hookMS > wallSum {
		r.ledgerErrs = append(r.ledgerErrs, fmt.Sprintf("cycle hooks timed %.3f ms, longer than the %.3f ms run", hookMS, wallSum))
	}
	if d := math.Abs(out[1].value + out[2].value - wall); d > 1e-9*wall {
		r.ledgerErrs = append(r.ledgerErrs, fmt.Sprintf("sim.eval_ms + sim.hook_ms = %.6f, traced wall %.6f", out[1].value+out[2].value, wall))
	}
	var layerSum float64
	for _, m := range out {
		if strings.HasSuffix(m.name, ".cpu_ms") {
			layerSum += m.value
		}
	}
	if total := per(float64(profiled) / 1e6); math.Abs(layerSum-total) > 1e-9*total {
		r.ledgerErrs = append(r.ledgerErrs, fmt.Sprintf("layer cpu_ms sum %.6f, profiled %.6f", layerSum, total))
	}
	r.notes = append(r.notes,
		fmt.Sprintf("traced: %d runs, %.0f simulated ms, raw wall %.4f ms/ms, median net wall %.4f ms/ms (untraced %.4f), profiled CPU %.4f ms/ms of rusage %.4f ms/ms",
			len(traced), simMS, wall, tracedWall, untracedWall, per(float64(profiled)/1e6), per(float64(t.rusage)/1e6)),
		fmt.Sprintf("checks: sim.eval_ms + sim.hook_ms = wall, layer cpu_ms sum = profiled CPU: %s", passFail(len(r.ledgerErrs) == 0)),
		fmt.Sprintf("host: steal %.0f ms (%.1f%% of busy host ticks) during the traced phase", t.steal.stealMS(), t.steal.stealPct()))
	return out
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}
