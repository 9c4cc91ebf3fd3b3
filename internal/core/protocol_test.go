package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestAppendToMatchesEncode(t *testing.T) {
	msgs := []Message{
		{Type: MsgWrite, Cycles: 12345, Port: "csum", Data: []byte{1, 2, 3}},
		{Type: MsgRead, Cycles: 99, Port: "pkt"},
		{Type: MsgData, Data: []byte{0xff, 0x00, 0x80}},
	}
	for _, m := range msgs {
		enc, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		app, err := m.AppendTo([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(app, append([]byte("prefix"), enc...)) {
			t.Fatalf("AppendTo mismatch for %+v:\n%x\n%x", m, app, enc)
		}
	}
	if _, err := (Message{Type: 99}).AppendTo(nil); err == nil {
		t.Fatal("AppendTo accepted unknown type")
	}
}

func TestWriteMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sent := []Message{
		{Type: MsgWrite, Cycles: 1, Port: "a", Data: []byte{9, 8, 7, 6}},
		{Type: MsgRead, Cycles: 2, Port: "bb"},
		{Type: MsgData, Data: []byte{5}},
		{Type: MsgWrite, Cycles: 3, Port: "a"}, // empty payload
	}
	for _, m := range sent {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for _, want := range sent {
		got, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Cycles != want.Cycles || got.Port != want.Port ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round trip: %+v -> %+v", want, got)
		}
		got.Release()
		if got.Data != nil {
			t.Fatal("Release did not clear Data")
		}
		got.Release() // double release of a cleared message is a no-op
	}
	if err := WriteMessage(io.Discard, Message{Type: 77}); err == nil {
		t.Fatal("WriteMessage accepted unknown type")
	}
}

func TestPortInterningShares(t *testing.T) {
	enc, err := Message{Type: MsgRead, Cycles: 1, Port: "interned-port"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	read := func() string {
		m, err := ReadMessage(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatal(err)
		}
		return m.Port
	}
	a, b := read(), read()
	if a != "interned-port" || a != b {
		t.Fatalf("interning broke decoding: %q vs %q", a, b)
	}
}

// TestCodecSteadyStateAllocations pins the hot-path allocation budget:
// Encode is one exact-size allocation, the pooled paths are
// allocation-free once warm.
func TestCodecSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool; allocation counts unstable")
	}
	m := Message{Type: MsgWrite, Cycles: 123, Port: "csum", Data: []byte{1, 2, 3, 4}}

	encAllocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 1.5 {
		t.Errorf("Encode allocates %.1f/op, want <= 1", encAllocs)
	}

	wmAllocs := testing.AllocsPerRun(200, func() {
		if err := WriteMessage(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	if wmAllocs > 0.5 {
		t.Errorf("WriteMessage allocates %.1f/op, want 0", wmAllocs)
	}

	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(enc)
	br := bufio.NewReader(rd)
	// Warm the pools, then measure the steady-state decode+release loop.
	for i := 0; i < 8; i++ {
		rd.Reset(enc)
		br.Reset(rd)
		got, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	rdAllocs := testing.AllocsPerRun(200, func() {
		rd.Reset(enc)
		br.Reset(rd)
		got, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	})
	if rdAllocs > 1.5 {
		t.Errorf("ReadMessage+Release allocates %.1f/op, want ~0", rdAllocs)
	}
}

// rawFrame prefixes body with its size word, building frames the
// encoder would refuse to write.
func rawFrame(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestReadMessageRejectsEnvelope pins that the protocol has three frame
// types: a type-4 frame wrapping a DATA frame, as a coalescing envelope
// would, is an unknown type and takes the ordinary rejection path,
// leaking no pooled buffer.
func TestReadMessageRejectsEnvelope(t *testing.T) {
	le := binary.LittleEndian
	inner := Message{Type: MsgData, Data: []byte{1}}
	enc, err := inner.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body := le.AppendUint32(nil, 4) // type
	body = le.AppendUint32(body, 1) // version
	body = le.AppendUint32(body, 1) // count
	body = append(body, enc...)
	before := DataBufsInUse()
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(rawFrame(body)))); err == nil {
		t.Fatal("ReadMessage accepted a type-4 frame")
	}
	if after := DataBufsInUse(); after != before {
		t.Fatalf("leaked %d pooled buffers", after-before)
	}
}

// TestDecodeErrorPathsLeakNothing drives every truncated, unknown or
// mis-sized frame through the decoder: each must be rejected and leave
// the payload pool balanced.
func TestDecodeErrorPathsLeakNothing(t *testing.T) {
	le := binary.LittleEndian
	cases := [][]byte{
		rawFrame(le.AppendUint32(nil, 99)),                          // unknown type
		rawFrame(le.AppendUint32(nil, MsgWrite)),                    // truncated header
		rawFrame(append(le.AppendUint32(nil, MsgData), 9, 0, 0, 0)), // datalen past body
		// The size word overstates the body: datalen=1, one stray byte.
		rawFrame(append(le.AppendUint32(nil, MsgData), 1, 0, 0, 0, 0x55, 0x99)),
		{3, 0, 0, 0},             // size below minimum
		{0xff, 0xff, 0xff, 0xff}, // size past MaxMessageSize
	}
	for i, raw := range cases {
		before := DataBufsInUse()
		if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
			t.Fatalf("case %d: accepted corrupt frame %x", i, raw)
		}
		if after := DataBufsInUse(); after != before {
			t.Fatalf("case %d: leaked %d pooled buffers", i, after-before)
		}
	}
}

// FuzzReadMessages feeds arbitrary byte streams to the decoder, reading
// frames until it errors: it must never panic, never surface a type
// outside READ/WRITE/DATA and never leak pooled payload buffers,
// whether the stream decodes or is rejected.
func FuzzReadMessages(f *testing.F) {
	seed := func(msgs ...Message) []byte {
		var buf bytes.Buffer
		for _, m := range msgs {
			if err := WriteMessage(&buf, m); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(seed(Message{Type: MsgData, Data: []byte{1, 2, 3}},
		Message{Type: MsgWrite, Cycles: 9, Port: "csum", Data: []byte{4}}))
	f.Add(seed(Message{Type: MsgRead, Cycles: 1, Port: "pkt"}))
	f.Add([]byte{8, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		before := DataBufsInUse()
		br := bufio.NewReader(bytes.NewReader(raw))
		for {
			m, err := ReadMessage(br)
			if err != nil {
				break
			}
			if m.Type != MsgWrite && m.Type != MsgRead && m.Type != MsgData {
				t.Fatalf("decoder surfaced message type %d", m.Type)
			}
			m.Release()
		}
		if after := DataBufsInUse(); after != before {
			t.Fatalf("leaked %d pooled buffers on input %x", after-before, raw)
		}
	})
}
