// Quickstart: the smallest complete ISS–SystemC co-simulation.
//
// A bare-metal FV32 guest program doubles whatever the hardware model
// hands it. The hardware side is a thread in the SystemC-like kernel;
// the two are coupled with the paper's GDB-Kernel scheme: breakpoints
// on the guest's variable accesses, serviced by a hook inside the
// simulation kernel.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/iss"
	"cosim/internal/sim"
)

// guestSrc is the software side, in FV32 assembly. The breakpoint
// labels mark the co-simulation touchpoints (§3.2 of the paper):
// bp_req is the line that *reads* the request variable (the kernel
// pokes it first), bp_resp is the line *after* the store of the
// response (the kernel reads it then).
const guestSrc = `
_start:
    la   s0, req
    la   s1, resp
loop:
bp_req:
    lw   a0, 0(s0)
    add  a1, a0, a0
    sw   a1, 0(s1)
bp_resp:
    nop
    j    loop
.data
.align 4
req:  .word 0
resp: .word 0
`

func main() {
	// 1. Build the guest and boot an ISS with it.
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000},
		asm.Source{Name: "guest.s", Text: guestSrc})
	if err != nil {
		log.Fatal(err)
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		log.Fatal(err)
	}
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)

	// 2. Serve the ISS behind a GDB remote-protocol stub (its own
	// goroutine — the "software simulator process").
	target, err := core.StartGDBTarget(cpu, core.TransportRing)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Create the hardware simulation kernel and attach the
	// GDB-Kernel co-simulation scheme.
	k := sim.NewKernel("quickstart")
	sim.NewClock(k, "clk", 10*sim.NS)
	scheme, err := core.Attach(k, core.Config{
		Scheme: "gdb-kernel",
		Common: core.CommonOptions{CPUPeriod: sim.NS, SkewBound: sim.US},
		Conn:   target.HostConn,
		Image:  im,
		Bindings: []core.VarBinding{
			{Port: "req", Var: "req", Size: 4, Dir: core.ToISS, Label: "bp_req"},
			{Port: "resp", Var: "resp", Size: 4, Dir: core.ToSystemC, Label: "bp_resp"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. The hardware model: a thread feeding the CPU work.
	req, _ := k.IssOutPort("req")
	resp, _ := k.IssInPort("resp")
	k.Thread("hw", func(c *sim.Ctx) {
		for i := uint32(1); i <= 5; i++ {
			req.WriteUint32(i)
			c.Wait(resp.Event())
			fmt.Printf("t=%-8v  hw sent %d, cpu answered %d\n", c.Now(), i, resp.Uint32())
		}
		k.Stop()
	})

	// 5. Run.
	if err := k.Run(sim.MaxTime); err != nil {
		log.Fatal(err)
	}
	k.Shutdown()
	if err := scheme.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guest executed %d instructions; co-sim stats: %+v\n",
		cpu.Instructions(), scheme.Stats())
}
