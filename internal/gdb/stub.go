package gdb

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"cosim/internal/isa"
	"cosim/internal/iss"
)

// Register numbering in the RSP register file ('g'/'p'/'P' packets):
// 0..31 are the GPRs, then PC and the special registers.
const (
	RegPC      = 32
	RegStatus  = 33
	RegEPC     = 34
	RegCause   = 35
	RegIVec    = 36
	RegScratch = 37
	RegCycle   = 38
	RegCycleH  = 39
	NumRSPRegs = 40
)

// stubRW routes transport reads through the pump and writes directly
// to the connection.
type stubRW struct {
	r io.Reader
	w io.Writer
}

func (rw stubRW) Read(b []byte) (int, error)  { return rw.r.Read(b) }
func (rw stubRW) Write(b []byte) (int, error) { return rw.w.Write(b) }

// Stub serves the GDB Remote Serial Protocol for one CPU. It owns the
// CPU while serving: run-control packets execute instructions on the
// caller-provided core, exactly like a gdbserver embedded in an ISS.
//
// Beyond the standard packet set the stub implements "qRun,<n>": run at
// most n instructions and reply either with a stop reply or with
// "B<executed>" if the budget was exhausted. This bounded-run primitive
// is what the GDB-Wrapper co-simulation scheme uses to keep the ISS and
// SystemC in lock-step.
type Stub struct {
	cpu  *iss.CPU
	t    *transport
	pump *pumpReader

	planted map[uint32]uint32 // software breakpoints: addr -> original word

	// ChunkBudget is the number of instructions run between break-in
	// polls while the target is running.
	ChunkBudget uint64
	// IdleSleep is how long the stub sleeps when the CPU is in WFI with
	// no pending interrupt.
	IdleSleep time.Duration

	lastSignal byte

	// Breakpoint-resume tracking: a planted breakpoint is stepped over
	// only when resuming from a stop that was reported at that address,
	// never when merely arriving at it.
	reportedBP   uint32
	haveReported bool
}

// NewStub creates a stub for the CPU over the connection.
func NewStub(cpu *iss.CPU, conn io.ReadWriter) *Stub {
	pump := newPumpReader(conn)
	s := &Stub{
		cpu:         cpu,
		t:           newTransport(stubRW{r: pump, w: conn}),
		pump:        pump,
		planted:     make(map[uint32]uint32),
		ChunkBudget: 50_000,
		IdleSleep:   50 * time.Microsecond,
		lastSignal:  5,
	}
	return s
}

// Stats returns protocol traffic counters.
func (s *Stub) Stats() Stats { return s.t.stats }

// Serve processes packets until kill, detach, or connection close.
func (s *Stub) Serve() error {
	for {
		pkt, err := s.t.readPacket()
		if err == ErrInterrupt {
			continue // already stopped; ignore stray break-ins
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		reply, done := s.dispatch(pkt)
		if reply != nil {
			if err := s.t.sendReplyNoAckWait(reply); err != nil {
				return err
			}
		}
		if done {
			if reply != nil {
				// Take the client's ack of the final reply before
				// returning, so the caller cannot close the connection
				// while the client is still writing it. A client that
				// hangs up instead of acking ends the session too.
				if _, err := s.t.br.ReadByte(); err != nil && err != io.EOF {
					return err
				}
			}
			return nil
		}
	}
}

// dispatch handles one command packet.
func (s *Stub) dispatch(pkt []byte) (reply []byte, done bool) {
	if len(pkt) == 0 {
		return []byte{}, false
	}
	switch pkt[0] {
	case '?':
		return []byte(fmt.Sprintf("S%02x", s.lastSignal)), false
	case 'g':
		return s.readAllRegs(), false
	case 'G':
		return s.writeAllRegs(pkt[1:]), false
	case 'p':
		return s.readOneReg(pkt[1:]), false
	case 'P':
		return s.writeOneReg(pkt[1:]), false
	case 'm':
		return s.readMem(pkt[1:]), false
	case 'M':
		return s.writeMemHex(pkt[1:]), false
	case 'X':
		return s.writeMemBin(pkt[1:]), false
	case 'Z':
		return s.setPoint(pkt[1:]), false
	case 'z':
		return s.clearPoint(pkt[1:]), false
	case 'c':
		return s.resume(false, pkt[1:]), false
	case 's':
		return s.resume(true, pkt[1:]), false
	case 'k':
		return nil, true
	case 'D':
		return []byte("OK"), true
	case 'H':
		return []byte("OK"), false
	case 'q':
		return s.query(pkt), false
	default:
		return []byte{}, false // unsupported: empty reply per RSP
	}
}

func (s *Stub) query(pkt []byte) []byte {
	q := string(pkt)
	switch {
	case bytes.HasPrefix(pkt, []byte("qRun,")):
		return s.runQuantum(pkt[len("qRun,"):])
	case bytes.HasPrefix(pkt, []byte("qSupported")):
		return []byte(fmt.Sprintf("PacketSize=%x;swbreak+;hwbreak+;qRun+;qXfer:features:read+", MaxPacketSize))
	case bytes.HasPrefix(pkt, []byte("qXfer:features:read:target.xml:")):
		return s.featuresXML(pkt[len("qXfer:features:read:target.xml:"):])
	case q == "qC":
		return []byte("QC0")
	case q == "qAttached":
		return []byte("1")
	case q == "qfThreadInfo":
		return []byte("m0")
	case q == "qsThreadInfo":
		return []byte("l")
	}
	return []byte{}
}

// targetXML is the gdb target description: 32 GPRs, PC, the special
// registers and the cycle counters, in 'g'-packet order.
var targetXML = func() []byte {
	var b bytes.Buffer
	b.WriteString(`<?xml version="1.0"?>` + "\n")
	b.WriteString(`<target version="1.0"><architecture>fv32</architecture>` + "\n")
	b.WriteString(`<feature name="org.cosim.fv32.core">` + "\n")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, `<reg name="%s" bitsize="32" regnum="%d"/>`+"\n", isa.RegName(uint8(i)), i)
	}
	names := []string{"pc", "status", "epc", "cause", "ivec", "scratch", "cycle", "cycleh"}
	for i, n := range names {
		kind := ""
		if n == "pc" {
			kind = ` type="code_ptr"`
		}
		fmt.Fprintf(&b, `<reg name="%s" bitsize="32" regnum="%d"%s/>`+"\n", n, RegPC+i, kind)
	}
	b.WriteString(`</feature></target>` + "\n")
	return b.Bytes()
}()

// featuresXML serves a window of the target description for a
// qXfer:features:read request ("offset,length" argument).
func (s *Stub) featuresXML(arg []byte) []byte {
	var off, length int
	if _, err := fmt.Sscanf(string(arg), "%x,%x", &off, &length); err != nil {
		return []byte("E01")
	}
	if off >= len(targetXML) {
		return []byte("l") // past the end
	}
	end := off + length
	marker := byte('l')
	if end < len(targetXML) {
		marker = 'm' // more follows
	} else {
		end = len(targetXML)
	}
	return append([]byte{marker}, targetXML[off:end]...)
}

// regValue reads one RSP-numbered register.
func (s *Stub) regValue(n int) uint32 {
	switch {
	case n >= 0 && n < 32:
		return s.cpu.Regs[n]
	case n == RegPC:
		return s.cpu.PC
	case n == RegCycle:
		return uint32(s.cpu.Cycles())
	case n == RegCycleH:
		return uint32(s.cpu.Cycles() >> 32)
	case n >= RegStatus && n <= RegScratch:
		return s.cpu.SR[n-RegStatus]
	}
	return 0
}

// setRegValue writes one RSP-numbered register (cycle counters are RO).
func (s *Stub) setRegValue(n int, v uint32) {
	switch {
	case n > 0 && n < 32:
		s.cpu.Regs[n] = v
	case n == RegPC:
		s.cpu.PC = v
	case n >= RegStatus && n <= RegScratch:
		s.cpu.SR[n-RegStatus] = v
	}
}

func (s *Stub) readAllRegs() []byte {
	out := make([]byte, 0, NumRSPRegs*8)
	for i := 0; i < NumRSPRegs; i++ {
		out = append(out, hexU32LE(s.regValue(i))...)
	}
	return out
}

func (s *Stub) writeAllRegs(hex []byte) []byte {
	if len(hex) < NumRSPRegs*8 {
		return []byte("E01")
	}
	for i := 0; i < NumRSPRegs; i++ {
		v, err := parseU32LE(hex[i*8 : i*8+8])
		if err != nil {
			return []byte("E01")
		}
		s.setRegValue(i, v)
	}
	return []byte("OK")
}

func (s *Stub) readOneReg(arg []byte) []byte {
	var n int
	if _, err := fmt.Sscanf(string(arg), "%x", &n); err != nil || n >= NumRSPRegs {
		return []byte("E01")
	}
	return hexU32LE(s.regValue(n))
}

func (s *Stub) writeOneReg(arg []byte) []byte {
	parts := bytes.SplitN(arg, []byte("="), 2)
	if len(parts) != 2 {
		return []byte("E01")
	}
	var n int
	if _, err := fmt.Sscanf(string(parts[0]), "%x", &n); err != nil || n >= NumRSPRegs {
		return []byte("E01")
	}
	v, err := parseU32LE(parts[1])
	if err != nil {
		return []byte("E01")
	}
	s.setRegValue(n, v)
	return []byte("OK")
}

// parseAddrLen parses "addr,len".
func parseAddrLen(arg []byte) (uint32, int, error) {
	var addr uint32
	var length int
	if _, err := fmt.Sscanf(string(arg), "%x,%x", &addr, &length); err != nil {
		return 0, 0, err
	}
	return addr, length, nil
}

// readMem handles 'm addr,len' with planted-breakpoint overlay so the
// debugger never sees EBREAK words it planted itself.
func (s *Stub) readMem(arg []byte) []byte {
	addr, length, err := parseAddrLen(arg)
	if err != nil || length < 0 || length > MaxPacketSize/2 {
		return []byte("E01")
	}
	buf := make([]byte, length)
	for i := 0; i < length; i++ {
		v, err := s.cpu.Bus().Read(addr+uint32(i), 1)
		if err != nil {
			return []byte("E02")
		}
		buf[i] = byte(v)
	}
	// Overlay original words for planted breakpoints in range.
	for ba, orig := range s.planted {
		for i := 0; i < 4; i++ {
			a := ba + uint32(i)
			if a >= addr && a < addr+uint32(length) {
				buf[a-addr] = byte(orig >> (8 * i))
			}
		}
	}
	return hexEncode(buf)
}

func (s *Stub) writeMemHex(arg []byte) []byte {
	parts := bytes.SplitN(arg, []byte(":"), 2)
	if len(parts) != 2 {
		return []byte("E01")
	}
	addr, length, err := parseAddrLen(parts[0])
	if err != nil {
		return []byte("E01")
	}
	data, err := hexDecode(parts[1])
	if err != nil || len(data) != length {
		return []byte("E01")
	}
	return s.writeMem(addr, data)
}

func (s *Stub) writeMemBin(arg []byte) []byte {
	parts := bytes.SplitN(arg, []byte(":"), 2)
	if len(parts) != 2 {
		return []byte("E01")
	}
	addr, length, err := parseAddrLen(parts[0])
	if err != nil {
		return []byte("E01")
	}
	data := parts[1] // transport already unescaped
	if len(data) != length {
		return []byte("E01")
	}
	return s.writeMem(addr, data)
}

// writeMem stores bytes, keeping software breakpoints planted: writes
// covering a planted word update the saved original instead. The
// written range is invalidated in the ISS's decode cache — a debugger
// patching live code must not leave stale predecoded entries behind.
func (s *Stub) writeMem(addr uint32, data []byte) []byte {
	s.unplantAll()
	var werr error
	for i, b := range data {
		if werr = s.cpu.Bus().Write(addr+uint32(i), 1, uint32(b)); werr != nil {
			break
		}
	}
	s.cpu.InvalidateDecode(addr, uint32(len(data)))
	s.replantAll()
	if werr != nil {
		return []byte("E02")
	}
	return []byte("OK")
}

// pokeWord writes one word of guest memory on the debugger's behalf and
// drops its predecoded entry — EBREAK planting patches code under the
// ISS's feet.
func (s *Stub) pokeWord(addr, v uint32) error {
	err := s.cpu.Bus().Write(addr, 4, v)
	s.cpu.InvalidateDecode(addr, 4)
	return err
}

func (s *Stub) unplantAll() {
	for addr, orig := range s.planted {
		_ = s.pokeWord(addr, orig)
	}
}

func (s *Stub) replantAll() {
	for addr := range s.planted {
		v, _ := s.cpu.Bus().Read(addr, 4)
		s.planted[addr] = v
		_ = s.pokeWord(addr, isa.BreakpointWord)
	}
}

// parsePoint parses "type,addr,kind".
func parsePoint(arg []byte) (ptype int, addr uint32, kind int, err error) {
	_, err = fmt.Sscanf(string(arg), "%d,%x,%x", &ptype, &addr, &kind)
	return
}

// setPoint handles Z packets: Z0 = software breakpoint (EBREAK plant),
// Z1 = hardware breakpoint, Z2 = write watchpoint.
func (s *Stub) setPoint(arg []byte) []byte {
	ptype, addr, kind, err := parsePoint(arg)
	if err != nil {
		return []byte("E01")
	}
	switch ptype {
	case 0:
		if _, dup := s.planted[addr]; dup {
			return []byte("OK")
		}
		orig, err := s.cpu.Bus().Read(addr, 4)
		if err != nil {
			return []byte("E02")
		}
		if err := s.pokeWord(addr, isa.BreakpointWord); err != nil {
			return []byte("E02")
		}
		s.planted[addr] = orig
		return []byte("OK")
	case 1:
		s.cpu.AddBreakpoint(addr)
		return []byte("OK")
	case 2:
		if kind <= 0 {
			kind = 4
		}
		s.cpu.AddWatchpoint(addr, uint32(kind))
		return []byte("OK")
	}
	return []byte{} // unsupported point type
}

func (s *Stub) clearPoint(arg []byte) []byte {
	ptype, addr, _, err := parsePoint(arg)
	if err != nil {
		return []byte("E01")
	}
	switch ptype {
	case 0:
		if orig, ok := s.planted[addr]; ok {
			_ = s.pokeWord(addr, orig)
			delete(s.planted, addr)
		}
		return []byte("OK")
	case 1:
		s.cpu.RemoveBreakpoint(addr)
		return []byte("OK")
	case 2:
		s.cpu.RemoveWatchpoint(addr)
		return []byte("OK")
	}
	return []byte{}
}

// resumingFromBP reports whether the current PC is a breakpoint stop
// that was already reported to the debugger, consuming the flag.
func (s *Stub) resumingFromBP() bool {
	if s.haveReported && s.reportedBP == s.cpu.PC {
		s.haveReported = false
		return true
	}
	return false
}

// stopReply converts a CPU stop into an RSP stop-reply packet, or nil
// if execution should continue (budget exhausted).
func (s *Stub) stopReply(stop iss.Stop) []byte {
	s.haveReported = false
	switch stop {
	case iss.StopEBreak, iss.StopBreak:
		s.lastSignal = 5
		s.reportedBP = s.cpu.PC
		s.haveReported = true
		return []byte("T05swbreak:;")
	case iss.StopWatch:
		s.lastSignal = 5
		return []byte(fmt.Sprintf("T05watch:%x;", s.cpu.WatchHit()))
	case iss.StopHalt:
		return []byte("W00")
	case iss.StopEcall:
		s.lastSignal = 0x1f
		return []byte("S1f")
	case iss.StopError:
		s.lastSignal = 0x0b
		return []byte("S0b")
	}
	return nil
}

// breakInPending polls the connection for the 0x03 break-in byte
// without blocking, via the pump.
func (s *Stub) breakInPending() bool {
	if s.t.br.Buffered() == 0 && !s.pump.Readable() {
		return false
	}
	b, err := s.t.br.Peek(1)
	if err != nil || len(b) == 0 {
		return false
	}
	if b[0] == InterruptByte {
		_, _ = s.t.br.ReadByte()
		return true
	}
	return false
}

// runQuantum implements the qRun,<n> lock-step extension: run up to n
// instructions, replying "B<executed-hex>" when the budget is exhausted
// (target still runnable) or with a normal stop reply.
func (s *Stub) runQuantum(arg []byte) []byte {
	var budget uint64
	if _, err := fmt.Sscanf(string(arg), "%x", &budget); err != nil || budget == 0 {
		return []byte("E01")
	}
	var executed uint64

	// Step over a planted breakpoint only when resuming from its
	// reported stop.
	if orig, ok := s.planted[s.cpu.PC]; ok && s.resumingFromBP() {
		bpAddr := s.cpu.PC
		_ = s.pokeWord(bpAddr, orig)
		s.cpu.StepOverBreakpoint()
		before := s.cpu.Instructions()
		st := s.cpu.Step()
		executed += s.cpu.Instructions() - before
		_ = s.pokeWord(bpAddr, isa.BreakpointWord)
		if r := s.stopReply(st); r != nil && st != iss.StopBreak && st != iss.StopEBreak {
			return r
		}
	}
	if executed < budget {
		stop, n := s.cpu.Run(budget - executed)
		executed += n
		if r := s.stopReply(stop); r != nil {
			return r
		}
		// StopIdle (WFI) also reports as budget-exhausted: in lock-step
		// mode the master advances time and retries.
	}
	return []byte(fmt.Sprintf("B%x", executed))
}

// resume implements 'c' (continue) and 's' (step). An optional resume
// address may be given in arg.
func (s *Stub) resume(step bool, arg []byte) []byte {
	if len(arg) > 0 {
		var addr uint32
		if _, err := fmt.Sscanf(string(arg), "%x", &addr); err == nil {
			s.cpu.PC = addr
		}
	}

	// Stepping off a planted breakpoint: restore, execute one
	// instruction, replant.
	if orig, ok := s.planted[s.cpu.PC]; ok && s.resumingFromBP() {
		bpAddr := s.cpu.PC
		_ = s.pokeWord(bpAddr, orig)
		s.cpu.StepOverBreakpoint()
		st := s.cpu.Step()
		_ = s.pokeWord(bpAddr, isa.BreakpointWord)
		if r := s.stopReply(st); r != nil && st != iss.StopBreak && st != iss.StopEBreak {
			return r
		}
		if step {
			s.lastSignal = 5
			return []byte("S05")
		}
	} else if step {
		s.cpu.StepOverBreakpoint()
		st := s.cpu.Step()
		if r := s.stopReply(st); r != nil {
			return r
		}
		s.lastSignal = 5
		return []byte("S05")
	}

	for {
		stop, _ := s.cpu.Run(s.ChunkBudget)
		if r := s.stopReply(stop); r != nil {
			return r
		}
		switch stop {
		case iss.StopIdle:
			// WFI with nothing pending: wait for an external interrupt,
			// watching for break-in meanwhile.
			if s.breakInPending() {
				s.lastSignal = 2
				return []byte("S02")
			}
			time.Sleep(s.IdleSleep)
		default: // budget exhausted
			if s.breakInPending() {
				s.lastSignal = 2
				return []byte("S02")
			}
		}
	}
}
