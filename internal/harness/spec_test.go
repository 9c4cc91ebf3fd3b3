package harness

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := Spec{
		Scheme:           "driver-kernel",
		Transport:        "ring",
		SimTime:          "10ms",
		ClockPeriod:      "100ns",
		CPUPeriod:        "10ns",
		SkewBound:        "1us",
		InstrPerCycle:    8,
		CPUs:             2,
		Delay:            "20us",
		PayloadWords:     4,
		ErrorRate:        0.25,
		MulticastRate:    0.5,
		FifoDepth:        8,
		PacketsPerSource: 100,
		Seed:             42,
		NoDecodeCache:    true,
		Quantum:          "100ns",
		Timing:           true,
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mutated the spec:\n  orig %+v\n  back %+v", orig, back)
	}
	if !strings.Contains(string(data), `"timing":true`) {
		t.Fatalf("encoded spec %s lacks \"timing\":true", data)
	}
	if p, err := back.Params(); err != nil || !p.Timing {
		t.Fatalf("decoded spec materialised Timing = %v (err %v), want true", p.Timing, err)
	}
}

func TestSpecParamsMaterialisation(t *testing.T) {
	spec := Spec{Scheme: "driver-kernel", Transport: "ring", SimTime: "10ms", Delay: "20us", CPUs: 2, Seed: 7}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != DriverKernel || p.CPUs != 2 || p.Seed != 7 {
		t.Fatalf("materialised params %+v", p)
	}
	if p.SimTime != 10*sim.MS || p.Delay != 20*sim.US {
		t.Fatalf("durations %v/%v, want 10ms/20us", p.SimTime, p.Delay)
	}
	if core.TransportName(p.Transport) != "ring" {
		t.Fatalf("transport %q, want ring", core.TransportName(p.Transport))
	}
	// Zero fields stay zero so Run's defaults apply on the executing
	// side.
	if p.ClockPeriod != 0 || p.CPUPeriod != 0 || p.SkewBound != 0 {
		t.Fatalf("unset durations materialised non-zero: %+v", p)
	}
	// The defaults view is what admission control quotas against.
	if d := p.WithDefaults(); d.ClockPeriod != 100*sim.NS || d.CPUs != 2 {
		t.Fatalf("defaults view %+v", d)
	}
}

// TestSpecParamsRoundTrip: Params → Spec → Params is lossless for every
// wire-safe field.
func TestSpecParamsRoundTrip(t *testing.T) {
	orig := Params{
		Scheme: GDBKernel, Transport: core.TransportTCP,
		SimTime: 2 * sim.MS, CPUPeriod: 10 * sim.NS,
		CPUs: 3, Delay: 5 * sim.US, PayloadWords: 6,
		ErrorRate: 0.1, FifoDepth: 4, PacketsPerSource: 9, Seed: 11,
		DMI: true, Coalesce: true, Quantum: 100 * sim.NS, Timing: true,
	}
	back, err := SpecFromParams(orig).Params()
	if err != nil {
		t.Fatal(err)
	}
	// The transport interface value survives by name.
	if core.TransportName(back.Transport) != "tcp" {
		t.Fatalf("transport %q", core.TransportName(back.Transport))
	}
	orig.Transport, back.Transport = nil, nil
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mutated params:\n  orig %+v\n  back %+v", orig, back)
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"missing-scheme", Spec{}, "missing scheme"},
		{"bad-scheme", Spec{Scheme: "quantum"}, "unknown scheme"},
		{"bad-transport", Spec{Scheme: "driver-kernel", Transport: "smoke-signals"}, "unknown transport"},
		{"bad-duration", Spec{Scheme: "driver-kernel", SimTime: "10 parsecs"}, "bad sim_time"},
		{"bad-rate", Spec{Scheme: "driver-kernel", ErrorRate: 1.5}, "outside [0,1]"},
		{"negative-cpus", Spec{Scheme: "driver-kernel", CPUs: -1}, "negative"},
	} {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	if err := (Spec{Scheme: "gdb-wrapper", CPUs: 2}).Validate(); !errors.Is(err, ErrSingleCPUScheme) {
		t.Errorf("multi-CPU wrapper: %v, want ErrSingleCPUScheme", err)
	}
	if err := (Spec{Scheme: "driver-kernel"}).Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

// TestSpecZeroDurationCanonicalises pins the zero-spelling contract:
// every explicit zero duration ("0", "0ns", ...) is accepted, decodes
// to the zero value (meaning "use the run default", same as omitting
// the field), and one Spec -> Params -> Spec trip canonicalises it to
// the omitted form — after which the round trip is the identity.
func TestSpecZeroDurationCanonicalises(t *testing.T) {
	for _, zero := range []string{"0", "0ps", "0ns", "0us", "0ms", "0s"} {
		spec := Spec{
			Scheme:  "driver-kernel",
			SimTime: zero, ClockPeriod: zero, CPUPeriod: zero,
			SkewBound: zero, Delay: zero, Quantum: zero,
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("zero spelling %q rejected: %v", zero, err)
		}
		p, err := spec.Params()
		if err != nil {
			t.Fatalf("zero spelling %q: %v", zero, err)
		}
		if p.SimTime != 0 || p.ClockPeriod != 0 || p.CPUPeriod != 0 ||
			p.SkewBound != 0 || p.Delay != 0 || p.Quantum != 0 {
			t.Fatalf("zero spelling %q materialised non-zero: %+v", zero, p)
		}
		canon := SpecFromParams(p)
		if canon.SimTime != "" || canon.ClockPeriod != "" || canon.CPUPeriod != "" ||
			canon.SkewBound != "" || canon.Delay != "" || canon.Quantum != "" {
			t.Fatalf("zero spelling %q did not canonicalise to omitted: %+v", zero, canon)
		}
		p2, err := canon.Params()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(SpecFromParams(p2), canon) {
			t.Fatalf("canonical form is not a round-trip fixed point: %+v", canon)
		}
	}
}

// TestDecodeSpecRejectsUnknownFields: a typo in a session request must
// fail loudly, not silently run the defaults.
func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	_, err := DecodeSpec([]byte(`{"scheme": "driver-kernel", "simtime": "1ms"}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("DecodeSpec = %v, want unknown-field error", err)
	}
}
