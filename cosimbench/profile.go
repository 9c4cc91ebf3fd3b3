package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps a fully qualified function name to the repository layer
// the ledger charges it to. ok is false for functions outside
// cosim/internal. Modules that only run during set-up (asm, harness)
// or not at all in these workloads (bus, server, analysis) are
// "other"; stackLayer adds "runtime". The FV32 isa package is
// the ISS's decoder and is charged to iss. The benchmark's own timing
// endpoint marks the transport boundary on both ends of a channel: the
// guest ends are bare sockets called straight from dev or gdb, and
// their syscalls are transport work.
func layerOf(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "main.(*timedEndpoint).") {
		return "transport", true
	}
	rest, ok := strings.CutPrefix(fn, "cosim/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "isa":
		return "iss", true
	case "sim", "iss", "core", "transport", "gdb", "dev", "rtos", "router", "obs":
		return rest, true
	}
	return "other", true
}

// stackLayer charges a stack, innermost frame first, to the innermost
// cosim/internal frame's layer, so runtime and syscall work a layer
// calls is charged to that layer.
func stackLayer(funcs []string) string {
	for _, fn := range funcs {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	return "runtime"
}

// profSample is one CPU profile sample: its stack as function names,
// innermost first with inlined frames expanded, and its CPU time.
type profSample struct {
	funcs []string
	cpuNS int64
}

// attribute sums sample CPU time per layer. Every sample lands in
// exactly one layer, so the parts add up to the profiled total.
func attribute(samples []profSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[stackLayer(s.funcs)] += s.cpuNS
	}
	return out
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes, keeping only what attribute
// needs. The format is documented in github.com/google/pprof's
// proto/profile.proto; the field numbers below come from it.
func parseCPUProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs       []string
		types      [][2]uint64 // sample_type (type, unit) string indices
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, vt := range types {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	out := make([]profSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if cpu >= len(rs.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		s := profSample{cpuNS: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.funcs = append(s.funcs, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

type rawSample struct{ locs, values []uint64 }

// appendPacked appends a repeated scalar field that arrives either as
// one varint (wire type 0, b == nil) or packed (wire type 2).
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its scalar value (varint and fixed wire types, b
// nil) or its bytes (length-delimited, non-nil even when empty).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64 field")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32 field")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
