package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"cosim/internal/server"
)

// settledGoroutines samples the goroutine count until it holds still,
// so goroutines from earlier tests that are still winding down don't
// pollute the baseline (the harness leak_test.go pattern).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// waitGoroutineBaseline polls until the live goroutine count is back at
// (or below) the pre-run baseline, failing with a full stack dump if it
// never gets there: those stacks are the leaked goroutines.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			dumped := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines alive 10s after shutdown (baseline %d) — session teardown leaked:\n%s",
				n, baseline, buf[:dumped])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerLeaksNoGoroutines is the acceptance check for co-simulation
// as a service: 64 concurrent session requests through a bounded
// 4-worker pool — spanning schemes, transports, mid-run client cancels
// and admission rejections — must leave no goroutine behind once every
// session is terminal and the server is closed. Each session owns a
// kernel, guest runners and transport endpoints; a leak in any per-
// session teardown path shows up here as surviving stacks.
func TestServerLeaksNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("64-session load; skipped in -short mode")
	}
	baseline := settledGoroutines()

	srv := server.New(server.Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())

	specs := []string{
		`{"scheme": "driver-kernel", "transport": "ring", "sim_time": "100us"}`,
		`{"scheme": "driver-kernel", "transport": "ring", "sim_time": "100us", "cpus": 2}`,
		`{"scheme": "gdb-kernel", "transport": "ring", "sim_time": "100us"}`,
		`{"scheme": "gdb-wrapper", "transport": "ring", "sim_time": "100us"}`,
		// Long enough that the cancel below lands mid-run or queued.
		`{"scheme": "driver-kernel", "transport": "ring", "sim_time": "100ms"}`,
	}

	const sessions = 64
	type posted struct {
		id       string
		canceled bool
	}
	results := make(chan posted, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			spec := specs[i%len(specs)]
			var out posted
			defer func() { results <- out }()
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte(spec)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("POST %d = %d", i, resp.StatusCode)
				return
			}
			out.id = body.ID
			// Every fifth session is the long one: cancel it client-side
			// so the teardown-under-cancel path is part of the load.
			if i%len(specs) == len(specs)-1 {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+body.ID, nil)
				if dresp, err := http.DefaultClient.Do(req); err == nil {
					dresp.Body.Close()
					out.canceled = true
				}
			}
		}(i)
	}

	// Wait for every session to reach a terminal state.
	deadline := time.Now().Add(120 * time.Second)
	for i := 0; i < sessions; i++ {
		p := <-results
		if p.id == "" {
			continue
		}
		for {
			sess, ok := srv.Session(p.id)
			if !ok {
				t.Fatalf("session %s evicted while load still runs", p.id)
			}
			st := sess.State()
			if st.Terminal() {
				if !p.canceled && st != server.StateDone {
					t.Errorf("session %s = %s, want done", p.id, st)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s still %s at deadline", p.id, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutineBaseline(t, baseline)
}
