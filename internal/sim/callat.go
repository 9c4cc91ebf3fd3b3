package sim

// callAtItem is one deferred call.
type callAtItem struct {
	t   Time
	seq uint64
	fn  func()
}

// callAtQueue is a binary min-heap of deferred calls ordered by
// (t, seq). It is typed rather than built on container/heap, whose
// Push and Pop box every item into an interface value.
type callAtQueue []callAtItem

func (q callAtQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q *callAtQueue) push(it callAtItem) {
	*q = append(*q, it)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest call. The vacated slot is
// cleared so the queue does not keep the closure alive.
func (q *callAtQueue) pop() callAtItem {
	h := *q
	n := len(h) - 1
	it := h[0]
	h[0] = h[n]
	h[n] = callAtItem{}
	h = h[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	*q = h
	return it
}

// callAtDispatcher runs deferred calls; created lazily by CallAt.
type callAtDispatcher struct {
	k     *Kernel
	ev    *Event
	queue callAtQueue
	seq   uint64
}

// ensureCallAt lazily creates the dispatcher (and its method process)
// on the first CallAt, which may come from inside a running simulation.
func (k *Kernel) ensureCallAt() *callAtDispatcher {
	if k.callAt == nil {
		d := &callAtDispatcher{k: k, ev: k.NewEvent("kernel.call_at")}
		k.callAt = d
		p := &Proc{k: k, name: "kernel.call_at_dispatch", kind: methodProc, fn: d.dispatch}
		d.ev.addStatic(p)
		p.static = append(p.static, d.ev)
		k.procs = append(k.procs, p)
	}
	return k.callAt
}

// CallAt schedules fn to run (as a one-shot simulation activity) at
// absolute time t; times in the past run in the next delta cycle. It is
// the mechanism co-simulation bridges use to deliver ISS data at the
// simulated time implied by consumed CPU cycles — under temporal
// decoupling these are exactly the batched time-advance notices a
// quantum of guest progress produces.
func (k *Kernel) CallAt(t Time, fn func()) {
	d := k.ensureCallAt()
	d.seq++
	d.queue.push(callAtItem{t: t, seq: d.seq, fn: fn})
	if t <= k.now {
		d.ev.NotifyDelta()
	} else {
		d.ev.NotifyAt(t)
	}
}

// CallAfter schedules fn after a relative delay.
func (k *Kernel) CallAfter(d Time, fn func()) { k.CallAt(k.now+d, fn) }

// dispatch runs every due call and re-arms for the next one.
func (d *callAtDispatcher) dispatch() {
	for len(d.queue) > 0 && d.queue[0].t <= d.k.now {
		d.queue.pop().fn()
	}
	if len(d.queue) > 0 {
		d.ev.NotifyAt(d.queue[0].t)
	}
}
