// Multicore: the "Multi-Processor SoC" of the paper's title — two ISSs
// co-simulated with one SystemC kernel, forming a processing pipeline,
// with results transported over the shared arbitrated system bus model.
//
// CPU0 runs a checksum stage (as in the router case study); CPU1 runs a
// scrambler stage (XOR whitening). A hardware DMA thread moves each
// stage's output into the bus-attached memory, where a checker verifies
// the pipeline end-to-end. Both CPUs are attached with the GDB-Kernel
// scheme under distinct port names.
//
// Run with: go run ./examples/multicore
package main

import (
	"fmt"
	"log"

	"cosim/internal/asm"
	"cosim/internal/bus"
	"cosim/internal/core"
	"cosim/internal/iss"
	"cosim/internal/sim"
)

// stage0Src computes a 16-bit checksum of a value (CPU0).
const stage0Src = `
_start:
    la   s0, in0
    la   s1, out0
loop:
bp_in:
    lw   a0, 0(s0)
    ; fold the word into 16 bits, ones'-complement style
    srli t0, a0, 16
    andi t1, a0, 0xFFFF
    add  t0, t0, t1
    srli t1, t0, 16
    add  t0, t0, t1
    andi t0, t0, 0xFFFF
    sw   t0, 0(s1)
bp_out:
    nop
    j    loop
.data
.align 4
in0:  .word 0
out0: .word 0
`

// stage1Src scrambles a value with a keyed XOR and rotation (CPU1).
const stage1Src = `
_start:
    la   s0, in1
    la   s1, out1
    li   s2, 0xA5A55A5A
loop:
bp_in:
    lw   a0, 0(s0)
    xor  a0, a0, s2
    slli t0, a0, 7
    srli t1, a0, 25
    or   a0, t0, t1
    sw   a0, 0(s1)
bp_out:
    nop
    j    loop
.data
.align 4
in1:  .word 0
out1: .word 0
`

// scramble mirrors stage1Src for verification.
func scramble(v uint32) uint32 {
	v ^= 0xa5a55a5a
	return v<<7 | v>>25
}

// fold mirrors stage0Src.
func fold(v uint32) uint32 {
	s := (v >> 16) + (v & 0xffff)
	s += s >> 16
	return s & 0xffff
}

// attachCPU boots a guest and couples it to the kernel with GDB-Kernel
// under a port-name prefix.
func attachCPU(k *sim.Kernel, name, src string) (*core.GDBKernel, *iss.CPU, error) {
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000},
		asm.Source{Name: name + ".s", Text: src})
	if err != nil {
		return nil, nil, err
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		return nil, nil, err
	}
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)
	target, err := core.StartGDBTarget(cpu, core.TransportRing)
	if err != nil {
		return nil, nil, err
	}
	g, err := core.NewGDBKernel(k, target.HostConn, im, core.GDBKernelOptions{
		CommonOptions: core.CommonOptions{CPUPeriod: sim.NS, SkewBound: 10 * sim.US},
		Bindings: []core.VarBinding{
			{Port: name + ".in", Var: "in0", Size: 4, Dir: core.ToISS, Label: "bp_in"},
			{Port: name + ".out", Var: "out0", Size: 4, Dir: core.ToSystemC, Label: "bp_out"},
		},
	})
	return g, cpu, err
}

func main() {
	k := sim.NewKernel("mpsoc")
	clk := sim.NewClock(k, "clk", 10*sim.NS)

	// Fix up variable names per guest: stage1 uses in1/out1.
	stage1 := stage1Src
	g0, cpu0, err := attachCPU(k, "cpu0", stage0Src)
	if err != nil {
		log.Fatal(err)
	}
	// attachCPU binds in0/out0; stage1's variables are named in1/out1,
	// so bind it explicitly.
	im1, err := asm.Assemble(asm.Options{DataBase: 0x10000},
		asm.Source{Name: "cpu1.s", Text: stage1})
	if err != nil {
		log.Fatal(err)
	}
	ram1 := iss.NewRAM(1 << 20)
	if err := im1.LoadInto(ram1); err != nil {
		log.Fatal(err)
	}
	cpu1 := iss.New(iss.NewSystemBus(ram1))
	cpu1.Reset(im1.Entry)
	target1, err := core.StartGDBTarget(cpu1, core.TransportRing)
	if err != nil {
		log.Fatal(err)
	}
	g1, err := core.NewGDBKernel(k, target1.HostConn, im1, core.GDBKernelOptions{
		CommonOptions: core.CommonOptions{CPUPeriod: sim.NS, SkewBound: 10 * sim.US},
		Bindings: []core.VarBinding{
			{Port: "cpu1.in", Var: "in1", Size: 4, Dir: core.ToISS, Label: "bp_in"},
			{Port: "cpu1.out", Var: "out1", Size: 4, Dir: core.ToSystemC, Label: "bp_out"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Shared system bus with a result memory; the pipeline DMA is
	// master 0, a background "scrubber" master 1 creates contention.
	sysBus := bus.New(k, "sysbus", bus.Config{Clock: clk, Masters: 2, CyclesPerTransaction: 2})
	mem := bus.NewMemory("results", 4096)
	if err := sysBus.Map(0x2000_0000, mem); err != nil {
		log.Fatal(err)
	}
	k.Thread("scrubber", func(c *sim.Ctx) {
		for i := uint32(0); ; i++ {
			_, _ = sysBus.Read(c, 1, 0x2000_0000+(i%64)*4)
			c.WaitTime(500 * sim.NS)
		}
	})

	in0, _ := k.IssOutPort("cpu0.in")
	out0, _ := k.IssInPort("cpu0.out")
	in1, _ := k.IssOutPort("cpu1.in")
	out1, _ := k.IssInPort("cpu1.out")

	// The pipeline driver: value -> CPU0 (fold) -> CPU1 (scramble) ->
	// DMA into the bus memory.
	inputs := []uint32{0xdeadbeef, 0x12345678, 0x00000001, 0xffffffff, 0xcafef00d, 42}
	k.Thread("pipeline", func(c *sim.Ctx) {
		for i, v := range inputs {
			in0.WriteUint32(v)
			c.Wait(out0.Event())
			stage0 := out0.Uint32()

			in1.WriteUint32(stage0)
			c.Wait(out1.Event())
			stage1v := out1.Uint32()

			if err := sysBus.Write(c, 0, 0x2000_0000+uint32(i)*4, stage1v); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("t=%-9v %#08x --cpu0--> %#06x --cpu1--> %#08x\n",
				c.Now(), v, stage0, stage1v)
		}
		k.Stop()
	})

	if err := k.Run(sim.MaxTime); err != nil && err != sim.ErrDeadlock {
		log.Fatal(err)
	}
	k.Shutdown()
	for _, g := range []*core.GDBKernel{g0, g1} {
		if err := g.Err(); err != nil {
			log.Fatal(err)
		}
	}

	// Verify the whole pipeline against the Go reference models.
	for i, v := range inputs {
		want := scramble(fold(v))
		got, err := mem.Read(uint32(i)*4, 4)
		if err != nil {
			log.Fatal(err)
		}
		if got != want {
			log.Fatalf("result[%d] = %#x, want %#x", i, got, want)
		}
	}
	fmt.Printf("\npipeline verified for %d values\n", len(inputs))
	fmt.Printf("cpu0 executed %d instructions, cpu1 %d; bus carried %d transactions (%.0f%% utilized)\n",
		cpu0.Instructions(), cpu1.Instructions(), sysBus.Granted(), 100*sysBus.Utilization())
}
