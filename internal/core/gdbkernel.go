package core

import (
	"fmt"
	"io"
	"time"

	"cosim/internal/asm"
	"cosim/internal/gdb"
	"cosim/internal/sim"
)

// GDBKernel is the paper's first proposed scheme (§3): the co-simulation
// wrapper is embedded into the simulation kernel. The ISS free-runs
// under a gdb 'continue'; at the beginning of every simulation cycle a
// kernel hook checks — without any host-OS involvement — whether the
// stub reported a breakpoint stop, and if so transfers data between the
// guest variable and the matching iss_in/iss_out port, then resumes the
// ISS (Figure 3).
type GDBKernel struct {
	gdbEngine
	running     bool
	err         error
	waitTimeout time.Duration // how long a conservative wait may block
}

// GDBKernelOptions configures the scheme.
type GDBKernelOptions struct {
	// CommonOptions carries the timing, skew, journal and observability
	// configuration shared by all schemes.
	CommonOptions
	// Bindings maps guest variables to ISS ports (§3.2).
	Bindings []VarBinding
}

// NewGDBKernel attaches the scheme to the kernel. conn is the RSP
// connection to the ISS stub; im is the guest image (for symbols and
// the line table). The client uses a reader goroutine so the per-cycle
// poll is an in-process check.
func NewGDBKernel(k *sim.Kernel, conn io.ReadWriter, im *asm.Image, opts GDBKernelOptions) (*GDBKernel, error) {
	g := &GDBKernel{waitTimeout: time.Second}
	g.k = k
	g.cl = gdb.NewClient(conn, gdb.ClientOptions{UseReaderGoroutine: true})
	g.period = opts.CPUPeriod
	g.skewBound = opts.SkewBound
	g.journal = opts.Journal
	g.schemeName = "gdb-kernel"
	g.obs.init(opts.Obs)
	var err error
	g.byAddr, g.byWatch, err = resolveBindings(k, im, opts.Bindings)
	if err != nil {
		return nil, err
	}
	if err := g.installBreakpoints(); err != nil {
		return nil, err
	}
	if err := g.cl.Continue(); err != nil {
		return nil, err
	}
	g.running = true
	// The ISS is in flight from every resume until its next stop; the
	// skew bound applies to that whole window.
	g.outstanding = true
	g.outSince = 0
	k.AddCycleHook(g.hook)
	k.AddFinalizer(func() { shutdownClient(g.cl, conn) })
	return g, nil
}

// Client exposes the underlying RSP client (for tests and tools).
func (g *GDBKernel) Client() *gdb.Client { return g.cl }

// Stats returns co-simulation activity counters.
func (g *GDBKernel) Stats() Stats { return g.stats }

// Err returns the first co-simulation error, if any.
func (g *GDBKernel) Err() error { return g.err }

// Exited reports whether the guest program has terminated.
func (g *GDBKernel) Exited() bool { return g.exited }

// hook is the begin-of-cycle scheduler modification (Figure 3): "check,
// through the invocation of special methods of the wrapper class, if
// the GDB is stopped at a breakpoint".
func (g *GDBKernel) hook(k *sim.Kernel) {
	if g.err != nil || g.exited {
		return
	}
	g.stats.Polls++
	g.obs.polls.Inc()

	// A stopped ISS waiting for iss_out data resumes as soon as the
	// SystemC side produces it.
	if g.waiting != nil {
		ok, err := g.retryWaiting()
		if err != nil {
			g.fail(err)
			return
		}
		if ok {
			g.resume()
		}
		return
	}

	if !g.running {
		return
	}
	var (
		ev      *gdb.StopEvent
		stopped bool
		err     error
	)
	if g.mustBlock() {
		// Conservative sync: hold simulated time until the ISS responds
		// (bounded wall wait; on timeout give up on this request so the
		// simulation doesn't stall, and count the escape: the skew bound
		// no longer holds).
		g.obs.skewWaits.Inc()
		sp := g.obs.skewWaitNS.Start()
		ev, stopped, err = g.cl.WaitStopTimeout(g.waitTimeout)
		sp.End()
		if err == nil && !stopped {
			g.outstanding = false
			g.stats.StallEscapes++
			g.obs.stallEscapes.Inc()
		}
	} else {
		ev, stopped, err = g.cl.PollStop()
	}
	if err != nil {
		g.fail(err)
		return
	}
	if !stopped {
		return
	}
	g.running = false
	g.outstanding = false
	if ev.Exited {
		g.exited = true
		return
	}
	resume, err := g.handleStop(ev)
	if err != nil {
		g.fail(err)
		return
	}
	if resume {
		g.resume()
	}
	// Otherwise the ISS stays stopped; retryWaiting will resume it.
}

// Detach implements Scheme: it quiesces the free-running ISS.
func (g *GDBKernel) Detach() { g.Quiesce() }

// Quiesce halts a free-running ISS after the simulation has finished,
// so its instruction/cycle counters can be read without racing the stub
// goroutine. It is a no-op when the guest is already stopped, exited,
// or the scheme has failed.
func (g *GDBKernel) Quiesce() {
	if !g.running || g.exited || g.err != nil {
		return
	}
	g.running = false
	g.outstanding = false
	if err := g.cl.Interrupt(); err != nil {
		return
	}
	_, _, _ = g.cl.WaitStopTimeout(time.Second)
}

func (g *GDBKernel) resume() {
	if err := g.cl.Continue(); err != nil {
		g.fail(err)
		return
	}
	g.running = true
	g.outstanding = true
	g.outSince = g.k.Now()
}

func (g *GDBKernel) fail(err error) {
	if g.err == nil {
		g.err = fmt.Errorf("gdb-kernel: %w", err)
	}
}
