package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/metrics"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		fn, layer string
		ok        bool
	}{
		{"cosim/internal/sim.(*Kernel).Run", "sim", true},
		{"cosim/internal/isa.Decode", "iss", true},
		{"cosim/internal/core.(*DriverKernel).drain.func1", "core", true},
		{"cosim/internal/asm.Assemble", "other", true},
		{"cosim/internal/analysis/callgraph.Build", "other", true},
		{"main.(*timedEndpoint).Read", "transport", true},
		{"main.runSample", "", false},
		{"runtime.mallocgc", "", false},
		{"cosim/internalx.F", "", false},
	}
	for _, c := range cases {
		if l, ok := layerOf(c.fn); l != c.layer || ok != c.ok {
			t.Errorf("layerOf(%q) = %q, %v; want %q, %v", c.fn, l, ok, c.layer, c.ok)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) msg(field int, m []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(m))))
	b.Write(m)
}

func (b *pb) packed(field int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.msg(field, p)
}

// synthProfile encodes a CPU profile with the given stacks (function
// names, innermost first) and per-sample CPU nanoseconds. Each stack
// frame becomes its own location except the first two, which share one
// location as an inlined pair, the way the runtime records inlining.
func synthProfile(t *testing.T, stacks [][]string, cpu []int64) []byte {
	t.Helper()
	var p pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.varint(1, str(vt[0]))
		m.varint(2, str(vt[1]))
		p.msg(1, m.Bytes())
	}
	nextLoc, nextFn := uint64(1), uint64(1)
	for i, stack := range stacks {
		var locs []uint64
		for j := 0; j < len(stack); {
			frames := stack[j : j+1]
			if j == 0 && len(stack) > 1 {
				frames = stack[0:2]
			}
			var loc pb
			loc.varint(1, nextLoc)
			for _, fn := range frames {
				var f pb
				f.varint(1, nextFn)
				f.varint(2, str(fn))
				p.msg(5, f.Bytes())
				var line pb
				line.varint(1, nextFn)
				line.varint(2, 42)
				loc.msg(4, line.Bytes())
				nextFn++
			}
			p.msg(4, loc.Bytes())
			locs = append(locs, nextLoc)
			nextLoc++
			j += len(frames)
		}
		var s pb
		if len(locs) == 1 {
			s.varint(1, locs[0]) // unpacked form, as the runtime writes short lists
		} else {
			s.packed(1, locs...)
		}
		s.packed(2, 1, uint64(cpu[i]))
		p.msg(2, s.Bytes())
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// TestAttributionSyntheticProfile charges each sample to its innermost
// cosim/internal frame: runtime work under a layer goes to that layer,
// stacks with no repository frame go to runtime, and the parts sum to
// the profiled total.
func TestAttributionSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		{"runtime.growslice", "cosim/internal/sim.(*Kernel).requestUpdateOwned", "cosim/internal/sim.(*Kernel).Run", "main.runSample"},
		{"syscall.Syscall", "net.(*conn).Write", "cosim/internal/transport.(*countedEndpoint).Write", "cosim/internal/core.WriteMessage"},
		{"syscall.Syscall", "net.(*conn).Read", "main.(*timedEndpoint).Read", "cosim/internal/dev.(*CosimDev).pump"},
		{"cosim/internal/isa.Decode", "cosim/internal/iss.(*CPU).Run"},
		{"cosim/internal/obs.(*Histogram).Observe", "cosim/internal/sim.(*Kernel).runHooks"},
		{"runtime.gcBgMarkWorker"},
		{"cosim/internal/asm.Assemble", "cosim/internal/harness.RunContext"},
	}
	cpu := []int64{10e6, 20e6, 30e6, 40e6, 50e6, 60e6, 70e6}
	samples, err := parseCPUProfile(synthProfile(t, stacks, cpu))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.funcs) != len(stacks[i]) || s.funcs[0] != stacks[i][0] || s.funcs[len(s.funcs)-1] != stacks[i][len(stacks[i])-1] {
			t.Errorf("sample %d decoded as %v, want %v", i, s.funcs, stacks[i])
		}
	}
	got := attribute(samples)
	want := map[string]int64{"sim": 10e6, "transport": 50e6, "iss": 40e6, "obs": 50e6, "runtime": 60e6, "other": 70e6}
	var sum, total int64
	for layer, ns := range got {
		sum += ns
		if ns != want[layer] {
			t.Errorf("%s charged %d ns, want %d", layer, ns, want[layer])
		}
	}
	for _, ns := range cpu {
		total += ns
	}
	if len(got) != len(want) || sum != total {
		t.Errorf("attribution %v sums to %d over %d layers, want %d over %d", got, sum, len(got), total, len(want))
	}
}

func TestParseCPUProfileRejectsCorruption(t *testing.T) {
	good := synthProfile(t, [][]string{{"cosim/internal/sim.F"}}, []int64{1})
	if _, err := parseCPUProfile(good[:len(good)/2]); err == nil {
		t.Error("truncated gzip stream accepted")
	}
	var p pb
	p.msg(2, []byte{0x0a, 0x05, 0x01}) // sample whose packed field overruns its message
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(p.Bytes())
	_ = zw.Close()
	if _, err := parseCPUProfile(gz.Bytes()); err == nil {
		t.Error("overrunning length-delimited field accepted")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize(vs)
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 || s.n != 10 {
		t.Errorf("summarize = %+v, want q1 2.75, median 5.5, q3 8.25, n 10", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.q1 != 1 || s.median != 2 || s.q3 != 4 {
		t.Errorf("summarize 3 values = %+v, want 1, 2, 4", s)
	}
	if s := summarize([]float64{7}); s.median != 7 || s.q1 != 7 || s.q3 != 7 || s.spread() != 0 {
		t.Errorf("summarize one value = %+v", s)
	}
}

func TestHistDeltaP50(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1, 2, math.Inf(1)}
	h0 := &metrics.Float64Histogram{Counts: []uint64{5, 0, 0, 0}, Buckets: buckets}
	h1 := &metrics.Float64Histogram{Counts: []uint64{5, 2, 2, 0}, Buckets: buckets}
	// Four new observations: two in [0,1), two in [1,2); the median sits
	// at the boundary.
	if got := histDeltaP50(h0, h1); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
}
