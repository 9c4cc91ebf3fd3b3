package gdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// StopEvent is a parsed RSP stop reply.
type StopEvent struct {
	Signal    byte
	IsWatch   bool
	WatchAddr uint32
	Exited    bool
	ExitCode  byte
}

// Regs is the full RSP register file.
type Regs struct {
	GPR    [32]uint32
	PC     uint32
	SR     [5]uint32 // STATUS, EPC, CAUSE, IVEC, SCRATCH
	Cycles uint64
}

// Client is the host side of the RSP connection — the role gdb itself
// plays. It is used by the co-simulation wrapper (GDB-Wrapper scheme)
// and by the modified SystemC kernel (GDB-Kernel scheme).
//
// Two read strategies are offered, mirroring the architectural
// difference the paper measures:
//
//   - Direct mode: replies are read inline from the connection;
//     PollStop issues a zero-deadline read — one host-OS syscall per
//     poll, like the wrapper's per-cycle IPC check.
//   - Buffered mode (UseReaderGoroutine): a background goroutine drains
//     the connection into an in-process queue; PollStop is a lock-free
//     channel check with no OS involvement — the kernel-embedded check.
type Client struct {
	t       *transport
	conn    io.ReadWriter
	running bool

	buffered bool
	packets  chan []byte
	readErr  error
	errMu    sync.Mutex

	// stopTimer bounds WaitStopTimeout. It is created on first use and
	// reset for each later call; between calls it is stopped and its
	// channel drained.
	stopTimer *time.Timer
}

// ClientOptions configures a Client.
type ClientOptions struct {
	// UseReaderGoroutine enables buffered mode (see Client docs).
	UseReaderGoroutine bool
}

// NewClient attaches a client to an RSP connection.
func NewClient(conn io.ReadWriter, opts ClientOptions) *Client {
	c := &Client{t: newTransport(conn), conn: conn, buffered: opts.UseReaderGoroutine}
	if c.buffered {
		c.packets = make(chan []byte, 64)
		go c.readLoop()
	}
	return c
}

// Stats returns protocol traffic counters.
func (c *Client) Stats() Stats { return c.t.stats }

func (c *Client) readLoop() {
	for {
		pkt, err := c.t.readPacket()
		if err != nil {
			c.errMu.Lock()
			c.readErr = err
			c.errMu.Unlock()
			close(c.packets)
			return
		}
		c.packets <- pkt
	}
}

func (c *Client) readError() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.readErr == nil {
		return errors.New("gdb: connection closed")
	}
	return c.readErr
}

// send transmits a command packet using the mode-appropriate ack
// strategy.
func (c *Client) send(payload []byte) error {
	if c.buffered {
		// Acks are consumed by the reader goroutine.
		return c.t.sendReplyNoAckWait(payload)
	}
	return c.t.sendPacket(payload)
}

// recv reads one reply packet.
func (c *Client) recv() ([]byte, error) {
	if c.buffered {
		pkt, ok := <-c.packets
		if !ok {
			return nil, c.readError()
		}
		return pkt, nil
	}
	for {
		pkt, err := c.t.readPacket()
		if err == ErrInterrupt {
			continue
		}
		return pkt, err
	}
}

// transact sends a command and returns its reply. It must not be called
// while the target is running.
func (c *Client) transact(payload []byte) ([]byte, error) {
	if c.running {
		return nil, errors.New("gdb: transaction attempted while target is running")
	}
	if err := c.send(payload); err != nil {
		return nil, err
	}
	c.t.stats.RoundTrips++
	return c.recv()
}

// checkOK validates an "OK" reply.
func checkOK(reply []byte, what string) error {
	if string(reply) == "OK" {
		return nil
	}
	return fmt.Errorf("gdb: %s failed: %q", what, reply)
}

// QuerySupported performs the initial feature handshake.
func (c *Client) QuerySupported() (string, error) {
	r, err := c.transact([]byte("qSupported:swbreak+"))
	return string(r), err
}

// HaltReason sends '?' and parses the current stop state.
func (c *Client) HaltReason() (*StopEvent, error) {
	r, err := c.transact([]byte("?"))
	if err != nil {
		return nil, err
	}
	return parseStop(r)
}

// ReadRegisters fetches the whole register file in one 'g' transaction.
func (c *Client) ReadRegisters() (*Regs, error) {
	r, err := c.transact([]byte("g"))
	if err != nil {
		return nil, err
	}
	if len(r) < NumRSPRegs*8 {
		return nil, fmt.Errorf("gdb: short g reply (%d bytes)", len(r))
	}
	var regs Regs
	vals := make([]uint32, NumRSPRegs)
	for i := range vals {
		v, err := parseU32LE(r[i*8 : i*8+8])
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	copy(regs.GPR[:], vals[:32])
	regs.PC = vals[RegPC]
	copy(regs.SR[:], vals[RegStatus:RegStatus+5])
	regs.Cycles = uint64(vals[RegCycle]) | uint64(vals[RegCycleH])<<32
	return &regs, nil
}

// ReadRegister fetches one register by RSP number.
func (c *Client) ReadRegister(n int) (uint32, error) {
	r, err := c.transact([]byte(fmt.Sprintf("p%x", n)))
	if err != nil {
		return 0, err
	}
	return parseU32LE(r)
}

// WriteRegister sets one register by RSP number.
func (c *Client) WriteRegister(n int, v uint32) error {
	r, err := c.transact([]byte(fmt.Sprintf("P%x=%s", n, hexU32LE(v))))
	if err != nil {
		return err
	}
	return checkOK(r, "write register")
}

// ReadPC fetches the program counter.
func (c *Client) ReadPC() (uint32, error) { return c.ReadRegister(RegPC) }

// Cycles fetches the target's cycle counter (used by the co-simulation
// bridge to couple ISS time to SystemC time).
func (c *Client) Cycles() (uint64, error) {
	lo, err := c.ReadRegister(RegCycle)
	if err != nil {
		return 0, err
	}
	hi, err := c.ReadRegister(RegCycleH)
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// ReadMemory fetches length bytes from the target.
func (c *Client) ReadMemory(addr uint32, length int) ([]byte, error) {
	r, err := c.transact([]byte(fmt.Sprintf("m%x,%x", addr, length)))
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(r, []byte("E")) {
		return nil, fmt.Errorf("gdb: memory read failed: %s", r)
	}
	return hexDecode(r)
}

// WriteMemory stores bytes on the target.
func (c *Client) WriteMemory(addr uint32, data []byte) error {
	r, err := c.transact([]byte(fmt.Sprintf("M%x,%x:%s", addr, len(data), hexEncode(data))))
	if err != nil {
		return err
	}
	return checkOK(r, "write memory")
}

// SetBreakpoint plants a software breakpoint (Z0).
func (c *Client) SetBreakpoint(addr uint32) error {
	r, err := c.transact([]byte(fmt.Sprintf("Z0,%x,4", addr)))
	if err != nil {
		return err
	}
	return checkOK(r, "set breakpoint")
}

// ClearBreakpoint removes a software breakpoint (z0).
func (c *Client) ClearBreakpoint(addr uint32) error {
	r, err := c.transact([]byte(fmt.Sprintf("z0,%x,4", addr)))
	if err != nil {
		return err
	}
	return checkOK(r, "clear breakpoint")
}

// SetHWBreakpoint arms a hardware breakpoint (Z1).
func (c *Client) SetHWBreakpoint(addr uint32) error {
	r, err := c.transact([]byte(fmt.Sprintf("Z1,%x,4", addr)))
	if err != nil {
		return err
	}
	return checkOK(r, "set hw breakpoint")
}

// SetWatchpoint arms a write watchpoint (Z2).
func (c *Client) SetWatchpoint(addr uint32, length int) error {
	r, err := c.transact([]byte(fmt.Sprintf("Z2,%x,%x", addr, length)))
	if err != nil {
		return err
	}
	return checkOK(r, "set watchpoint")
}

// ClearWatchpoint removes a write watchpoint (z2).
func (c *Client) ClearWatchpoint(addr uint32) error {
	r, err := c.transact([]byte(fmt.Sprintf("z2,%x,4", addr)))
	if err != nil {
		return err
	}
	return checkOK(r, "clear watchpoint")
}

// Step executes one instruction and returns the stop event.
func (c *Client) Step() (*StopEvent, error) {
	if err := c.send([]byte("s")); err != nil {
		return nil, err
	}
	c.t.stats.RoundTrips++
	r, err := c.recv()
	if err != nil {
		return nil, err
	}
	return parseStop(r)
}

// Continue resumes the target. The stop reply arrives asynchronously;
// collect it with PollStop or WaitStop.
func (c *Client) Continue() error {
	if c.running {
		return errors.New("gdb: already running")
	}
	if err := c.send([]byte("c")); err != nil {
		return err
	}
	c.running = true
	return nil
}

// Running reports whether a continue is outstanding.
func (c *Client) Running() bool { return c.running }

// PollStop checks non-blockingly whether the running target has
// stopped: an in-process channel check with no OS involvement — the
// kernel-embedded poll of the GDB-Kernel scheme. It requires buffered
// mode; the lock-step GDB-Wrapper scheme uses RunQuantum transactions
// instead and never needs to poll.
func (c *Client) PollStop() (*StopEvent, bool, error) {
	if !c.running {
		return nil, false, errors.New("gdb: PollStop while not running")
	}
	if !c.buffered {
		return nil, false, errors.New("gdb: PollStop requires UseReaderGoroutine")
	}
	select {
	case pkt, ok := <-c.packets:
		if !ok {
			return nil, false, c.readError()
		}
		ev, err := parseStop(pkt)
		if err != nil {
			return nil, false, err
		}
		c.running = false
		return ev, true, nil
	default:
		return nil, false, nil
	}
}

// RunQuantum runs the target for at most budget instructions using the
// qRun extension — one full RSP round trip through the host OS per
// call, which is the per-cycle lock-step synchronization cost the
// GDB-Wrapper scheme pays. It returns (nil, executed) when the budget
// was exhausted with the target still runnable, or the stop event.
func (c *Client) RunQuantum(budget uint64) (*StopEvent, uint64, error) {
	r, err := c.transact([]byte(fmt.Sprintf("qRun,%x", budget)))
	if err != nil {
		return nil, 0, err
	}
	if len(r) > 0 && r[0] == 'B' {
		var executed uint64
		if _, err := fmt.Sscanf(string(r[1:]), "%x", &executed); err != nil {
			return nil, 0, fmt.Errorf("gdb: bad qRun reply %q", r)
		}
		return nil, executed, nil
	}
	ev, err := parseStop(r)
	if err != nil {
		return nil, 0, err
	}
	return ev, 0, nil
}

// WaitStopTimeout blocks until the running target stops or the wall
// timeout elapses (buffered mode only). It returns ok=false on timeout
// with the target still running.
func (c *Client) WaitStopTimeout(d time.Duration) (*StopEvent, bool, error) {
	if !c.running {
		return nil, false, errors.New("gdb: WaitStopTimeout while not running")
	}
	if !c.buffered {
		return nil, false, errors.New("gdb: WaitStopTimeout requires UseReaderGoroutine")
	}
	if c.stopTimer == nil {
		c.stopTimer = time.NewTimer(d)
	} else {
		c.stopTimer.Reset(d)
	}
	timer := c.stopTimer
	select {
	case pkt, ok := <-c.packets:
		if !timer.Stop() {
			<-timer.C
		}
		if !ok {
			return nil, false, c.readError()
		}
		ev, err := parseStop(pkt)
		if err != nil {
			return nil, false, err
		}
		c.running = false
		return ev, true, nil
	case <-timer.C:
		return nil, false, nil
	}
}

// WaitStop blocks until the running target stops.
func (c *Client) WaitStop() (*StopEvent, error) {
	if !c.running {
		return nil, errors.New("gdb: WaitStop while not running")
	}
	pkt, err := c.recv()
	if err != nil {
		return nil, err
	}
	c.running = false
	return parseStop(pkt)
}

// Interrupt sends the break-in byte to stop a running target; collect
// the resulting stop with WaitStop.
func (c *Client) Interrupt() error {
	_, err := c.conn.Write([]byte{InterruptByte})
	return err
}

// Kill terminates the stub (no reply is defined for 'k').
func (c *Client) Kill() error {
	return c.send([]byte("k"))
}

// Detach cleanly detaches from the stub.
func (c *Client) Detach() error {
	_, err := c.transact([]byte("D"))
	return err
}

// parseStop decodes S/T/W stop replies.
func parseStop(pkt []byte) (*StopEvent, error) {
	if len(pkt) < 3 {
		return nil, fmt.Errorf("gdb: short stop reply %q", pkt)
	}
	ev := &StopEvent{}
	sig, err := parseHexByte(pkt[1], pkt[2])
	if err != nil {
		return nil, err
	}
	switch pkt[0] {
	case 'S':
		ev.Signal = sig
		return ev, nil
	case 'W':
		ev.Exited = true
		ev.ExitCode = sig
		return ev, nil
	case 'T':
		ev.Signal = sig
		for _, field := range strings.Split(string(pkt[3:]), ";") {
			if v, ok := strings.CutPrefix(field, "watch:"); ok {
				ev.IsWatch = true
				_, _ = fmt.Sscanf(v, "%x", &ev.WatchAddr)
			}
		}
		return ev, nil
	}
	return nil, fmt.Errorf("gdb: unrecognized stop reply %q", pkt)
}

// Buffered reports whether the client uses a reader goroutine.
func (c *Client) Buffered() bool { return c.buffered }
