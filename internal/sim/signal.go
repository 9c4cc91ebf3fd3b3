package sim

// Signal is a primitive channel equivalent to sc_signal[T]. Writes made
// during the evaluation phase become visible only in the following update
// phase; a value change triggers the signal's changed event as a delta
// notification, so statically sensitive processes observe the classic
// SystemC signal semantics.
type Signal[T comparable] struct {
	k       *Kernel
	name    string
	cur     T
	next    T
	hasNext bool
	changed *Event
	writes  uint64
}

// NewSignal creates a named signal with the zero value of T.
func NewSignal[T comparable](k *Kernel, name string) *Signal[T] {
	s := &Signal[T]{k: k, name: name}
	s.changed = k.NewEvent(name + ".value_changed")
	return s
}

// NewSignalInit creates a signal with an explicit initial value.
func NewSignalInit[T comparable](k *Kernel, name string, init T) *Signal[T] {
	s := NewSignal[T](k, name)
	s.cur = init
	return s
}

// Name returns the signal name.
func (s *Signal[T]) Name() string { return s.name }

// Read returns the current (published) value.
func (s *Signal[T]) Read() T { return s.cur }

// Write schedules v to become the signal's value in the next update
// phase. Multiple writes in the same evaluation phase follow
// last-write-wins semantics.
func (s *Signal[T]) Write(v T) {
	s.writes++
	if !s.hasNext {
		s.hasNext = true
		s.k.requestUpdate(s)
	}
	s.next = v
}

// Changed returns the value-changed event.
func (s *Signal[T]) Changed() *Event { return s.changed }

// WriteCount returns the number of Write calls, useful in tests.
func (s *Signal[T]) WriteCount() uint64 { return s.writes }

// update publishes the pending value (update phase).
func (s *Signal[T]) update() {
	s.hasNext = false
	if s.next != s.cur {
		s.cur = s.next
		s.changed.NotifyDelta()
	}
}

// In is a typed input port bound to a signal, equivalent to sc_in[T].
type In[T comparable] struct {
	name string
	sig  *Signal[T]
}

// Out is a typed output port bound to a signal, equivalent to sc_out[T].
type Out[T comparable] struct {
	name string
	sig  *Signal[T]
}

// NewIn creates an unbound input port.
func NewIn[T comparable](name string) *In[T] { return &In[T]{name: name} }

// NewOut creates an unbound output port.
func NewOut[T comparable](name string) *Out[T] { return &Out[T]{name: name} }

// Bind connects the port to a signal.
func (p *In[T]) Bind(s *Signal[T]) { p.sig = s }

// Bind connects the port to a signal.
func (p *Out[T]) Bind(s *Signal[T]) { p.sig = s }

// Name returns the port name.
func (p *In[T]) Name() string { return p.name }

// Name returns the port name.
func (p *Out[T]) Name() string { return p.name }

// Bound reports whether the port has been bound to a signal.
func (p *In[T]) Bound() bool { return p.sig != nil }

// Bound reports whether the port has been bound to a signal.
func (p *Out[T]) Bound() bool { return p.sig != nil }

// Read returns the bound signal's current value.
func (p *In[T]) Read() T { return p.sig.Read() }

// Changed returns the bound signal's value-changed event.
func (p *In[T]) Changed() *Event { return p.sig.Changed() }

// Write writes to the bound signal.
func (p *Out[T]) Write(v T) { p.sig.Write(v) }

// Read returns the bound signal's current value (sc_out is readable).
func (p *Out[T]) Read() T { return p.sig.Read() }
