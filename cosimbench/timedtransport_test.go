package main

import (
	"context"
	"io"
	"net"
	"testing"

	"cosim/internal/core"
	"cosim/internal/harness"
	"cosim/internal/obs"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

// recordingEndpoint is a net.Pipe end that also records the Flush and
// RecordBatch calls that reach it.
type recordingEndpoint struct {
	net.Conn
	flushes, batched int
}

func (r *recordingEndpoint) Flush() error      { r.flushes++; return nil }
func (r *recordingEndpoint) RecordBatch(n int) { r.batched += n }

type recordingTransport struct {
	core.Transport
	host, guest *recordingEndpoint
}

func (r *recordingTransport) Name() string { return "rec" }

func (r *recordingTransport) Pair() (transport.Endpoint, transport.Endpoint, error) {
	h, g := net.Pipe()
	r.host, r.guest = &recordingEndpoint{Conn: h}, &recordingEndpoint{Conn: g}
	return r.host, r.guest, nil
}

func TestTimedTransportKeepsName(t *testing.T) {
	for _, tr := range transport.All() {
		if got := newTimedTransport(tr).Name(); got != tr.Name() {
			t.Errorf("wrapped %s transport is named %q", tr.Name(), got)
		}
	}
}

// TestTimedEndpointForwards stacks the harness's observed transport on
// the timing wrapper, as a traced run does, and checks that Flush and
// RecordBatch reach the endpoint underneath while the observed
// counters keep the wrapped transport's name.
func TestTimedEndpointForwards(t *testing.T) {
	rec := &recordingTransport{}
	timed := newTimedTransport(rec)
	reg := obs.NewRegistry()
	host, guest, err := transport.Observed(timed, reg).Pair()
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	defer guest.Close()

	if err := transport.Flush(host); err != nil {
		t.Fatal(err)
	}
	transport.RecordBatch(host, 3)
	if err := transport.Flush(guest); err != nil {
		t.Fatal(err)
	}
	transport.RecordBatch(guest, 2)
	if rec.host.flushes != 1 || rec.host.batched != 3 {
		t.Errorf("host end saw %d flushes, %d batched msgs; want 1, 3", rec.host.flushes, rec.host.batched)
	}
	if rec.guest.flushes != 1 || rec.guest.batched != 2 {
		t.Errorf("guest end saw %d flushes, %d batched msgs; want 1, 2", rec.guest.flushes, rec.guest.batched)
	}

	wrote := make(chan error, 1)
	go func() {
		_, err := guest.Write([]byte("ping"))
		wrote <- err
	}()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(host, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Flatten()
	if c["transport.rec.batched_msgs"] != 3 || c["transport.rec.rx_bytes"] != 4 || c["transport.rec.pairs"] != 1 {
		t.Errorf("observed counters %v; want batched_msgs 3, rx_bytes 4, pairs 1", c)
	}
	if r, w := timed.times.reads.Load(), timed.times.writes.Load(); r != 1 || w != 1 || timed.times.bytes.Load() != 8 {
		t.Errorf("timed %d reads, %d writes, %d bytes; want 1, 1, 8", r, w, timed.times.bytes.Load())
	}
}

// TestTimedTransportLeavesRunUnchanged runs the gk1-tcp workload, whose
// outcome is deterministic, with and without the timing wrapper: the
// functional signature and the transport counters must not move.
func TestTimedTransportLeavesRunUnchanged(t *testing.T) {
	w, err := findWorkload("gk1-tcp")
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr core.Transport) *harness.Result {
		p := w.params(5)
		p.SimTime = 2 * sim.MS
		if tr != nil {
			p.Transport = tr
		}
		res, err := harness.RunContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(w, res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	timed := newTimedTransport(core.TransportTCP)
	wrapped := run(timed)

	ps, ws := (&sample{res: plain}).signature(), (&sample{res: wrapped}).signature()
	if ps != ws {
		t.Errorf("signature moved under the wrapper:\n plain   %v\n wrapped %v", ps, ws)
	}
	for _, name := range []string{"transport.tcp.batched_msgs", "transport.tcp.pairs", "transport.tcp.tx_bytes", "transport.tcp.rx_bytes"} {
		pv, okP := plain.Counters[name]
		wv, okW := wrapped.Counters[name]
		if !okP || !okW || pv != wv {
			t.Errorf("%s: plain %d (present %v), wrapped %d (present %v)", name, pv, okP, wv, okW)
		}
	}
	if timed.times.writes.Load() == 0 || timed.times.reads.Load() == 0 {
		t.Error("wrapper timed no traffic")
	}
}
