package main

import (
	"sync/atomic"
	"time"

	"cosim/internal/core"
	"cosim/internal/transport"
)

// transportTimes accumulates the timing wrapper's measurements over
// every endpoint it hands out, both ends of every pair.
type transportTimes struct {
	writeNS, readNS atomic.Int64
	writes, reads   atomic.Int64
	bytes           atomic.Int64
}

// timedTransport wraps a transport so every endpoint of every pair
// times its Read and Write calls. It keeps the wrapped transport's
// Name, so the harness's transport.<name>.* counters are unchanged;
// Listen and Dial pass through untimed because the harness only pairs.
type timedTransport struct {
	core.Transport
	times *transportTimes
}

func newTimedTransport(tr core.Transport) *timedTransport {
	return &timedTransport{Transport: tr, times: &transportTimes{}}
}

func (t *timedTransport) Pair() (host, guest transport.Endpoint, err error) {
	host, guest, err = t.Transport.Pair()
	if err != nil {
		return nil, nil, err
	}
	return &timedEndpoint{ep: host, t: t.times}, &timedEndpoint{ep: guest, t: t.times}, nil
}

// timedEndpoint forwards Flush and RecordBatch so batching and batch
// accounting underneath it behave as if it were not there.
type timedEndpoint struct {
	ep transport.Endpoint
	t  *transportTimes
}

// Read is timed from call to return when it delivers data: for a
// blocking reader that is how long it waited for the peer. The read
// that ends a channel at teardown delivers nothing and is not counted.
func (e *timedEndpoint) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := e.ep.Read(p)
	if n > 0 {
		e.t.readNS.Add(int64(time.Since(start)))
		e.t.reads.Add(1)
		e.t.bytes.Add(int64(n))
	}
	return n, err
}

func (e *timedEndpoint) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := e.ep.Write(p)
	e.t.writeNS.Add(int64(time.Since(start)))
	e.t.writes.Add(1)
	e.t.bytes.Add(int64(n))
	return n, err
}

func (e *timedEndpoint) Close() error      { return e.ep.Close() }
func (e *timedEndpoint) Flush() error      { return transport.Flush(e.ep) }
func (e *timedEndpoint) RecordBatch(n int) { transport.RecordBatch(e.ep, n) }
