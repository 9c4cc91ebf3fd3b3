package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter is not idempotent by name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(3)
	if got := g.Load(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
}

// timedRegistry returns a registry that hands out live histograms.
func timedRegistry() *Registry {
	r := NewRegistry()
	r.EnableTiming()
	return r
}

func TestHistogramBuckets(t *testing.T) {
	r := timedRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1010 {
		t.Fatalf("sum = %d, want 1010", h.Sum())
	}
	s := h.snapshot()
	// Buckets: 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 4 -> le 7; 1000 -> le 1023.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 7: 1, 1023: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
	if s.Max != 1023 {
		t.Fatalf("max = %d, want 1023", s.Max)
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
	g := r.Gauge("x")
	g.Set(9)
	if g.Load() != 0 {
		t.Fatal("nil gauge should load 0")
	}
	h := r.Histogram("x")
	h.Observe(42)
	h.Start().End()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	s := r.Snapshot()
	if len(s.Flatten()) != 0 {
		t.Fatal("nil registry snapshot should flatten empty")
	}
}

// TestUntimedRegistryHandsOutNoHistograms pins the default: counters
// and gauges are live, histograms are nil, spans on them are inert, and
// the snapshot carries no histogram keys.
func TestUntimedRegistryHandsOutNoHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(2)
	h := r.Histogram("span_ns")
	if h != nil {
		t.Fatal("untimed registry returned a live histogram")
	}
	sp := h.Start()
	if sp != (Span{}) {
		t.Fatalf("span on an untimed histogram = %+v, want the inert zero span", sp)
	}
	sp.End()
	h.Observe(5)
	flat := r.Snapshot().Flatten()
	want := map[string]uint64{"c": 1, "g": 2}
	if len(flat) != len(want) || flat["c"] != 1 || flat["g"] != 2 {
		t.Fatalf("untimed snapshot = %v, want %v", flat, want)
	}

	// Timing applies to lookups made after it is enabled.
	r.EnableTiming()
	if r.Histogram("span_ns") == nil {
		t.Fatal("timed registry returned a nil histogram")
	}
	var nilReg *Registry
	nilReg.EnableTiming()
	if nilReg.Histogram("x") != nil {
		t.Fatal("nil registry returned a live histogram")
	}
}

func TestDisabledHotPathZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("hot")
	h := r.Histogram("hot_ns")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(17)
		sp := h.Start()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestEnabledHotPathZeroAllocs(t *testing.T) {
	r := timedRegistry()
	c := r.Counter("hot")
	h := r.Histogram("hot_ns")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(17)
	})
	if allocs != 0 {
		t.Fatalf("enabled metrics allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestSpanObservesElapsed(t *testing.T) {
	r := timedRegistry()
	h := r.Histogram("span_ns")
	sp := h.Start()
	time.Sleep(time.Millisecond)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("span count = %d, want 1", h.Count())
	}
	if h.Sum() < uint64(time.Millisecond) {
		t.Fatalf("span sum = %dns, want >= 1ms", h.Sum())
	}
}

func TestSnapshotFlattenAndJSON(t *testing.T) {
	r := timedRegistry()
	r.Counter("driver.messages").Add(10)
	r.Gauge("sim.cycles").Set(42)
	r.Histogram("sim.cycle_hook_ns").Observe(100)
	s := r.Snapshot()
	flat := s.Flatten()
	if flat["driver.messages"] != 10 || flat["sim.cycles"] != 42 {
		t.Fatalf("flatten = %v", flat)
	}
	if flat["sim.cycle_hook_ns.count"] != 1 || flat["sim.cycle_hook_ns.sum"] != 100 {
		t.Fatalf("flatten histogram = %v", flat)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := timedRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(uint64(j))
				r.Gauge("g").Set(uint64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := timedRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

// BenchmarkSpan is one Start/End pair on a live histogram: what the
// kernel pays per simulation cycle for sim.cycle_hook_ns when timing is
// enabled.
func BenchmarkSpan(b *testing.B) {
	h := timedRegistry().Histogram("span_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Start().End()
	}
}

// BenchmarkSpanUntimed is the same pair on an untimed registry's
// histogram, which is nil: the per-cycle cost of a default run.
func BenchmarkSpanUntimed(b *testing.B) {
	h := NewRegistry().Histogram("span_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Start().End()
	}
}
