// The server-level chaos harness: an httptest-based hammer that drives the
// daemon through injected panics, slow parses, deadline storms, oversize
// payloads and cancel-during-drain, asserting the graceful-degradation
// contract — the daemon never crashes, every request gets a typed outcome,
// and a drain leaves zero admitted requests unanswered. Run under -race
// (make check does); the concurrency here is the point.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertree/internal/budget/faultinject"
)

// hammerResult is one request's fate as the hammer saw it: the typed
// envelope when a response arrived, or transportErr when the client itself
// gave up (canceled mid-flight) — the only case with nothing to decode.
type hammerResult struct {
	status       int
	resp         *Response
	transportErr error
}

// hammer fires n concurrent POST /decompose requests built by makeReq and
// collects every fate. Each request must produce either a decodable typed
// envelope or a transport error; anything else fails the test.
func hammer(t *testing.T, ts *httptest.Server, n int, makeReq func(i int) (query string, body []byte, ctx context.Context)) []hammerResult {
	t.Helper()
	results := make([]hammerResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			query, body, ctx := makeReq(i)
			if ctx == nil {
				ctx = context.Background()
			}
			url := ts.URL + "/decompose"
			if query != "" {
				url += "?" + query
			}
			req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			hr, err := ts.Client().Do(req)
			if err != nil {
				results[i] = hammerResult{transportErr: err}
				return
			}
			defer hr.Body.Close()
			data, err := io.ReadAll(hr.Body)
			if err != nil {
				results[i] = hammerResult{status: hr.StatusCode, transportErr: err}
				return
			}
			var resp Response
			if jerr := json.Unmarshal(lastEnvelope(data), &resp); jerr != nil {
				t.Errorf("request %d: response is not a typed envelope (status %d): %q", i, hr.StatusCode, data)
				return
			}
			results[i] = hammerResult{status: hr.StatusCode, resp: &resp}
		}(i)
	}
	wg.Wait()
	return results
}

// lastEnvelope returns the JSON envelope of a response body: the body itself
// for plain responses, the final result frame's data for SSE streams.
func lastEnvelope(body []byte) []byte {
	const marker = "event: result\ndata: "
	if idx := bytes.LastIndex(body, []byte(marker)); idx >= 0 {
		payload := body[idx+len(marker):]
		if nl := bytes.IndexByte(payload, '\n'); nl >= 0 {
			payload = payload[:nl]
		}
		return payload
	}
	return body
}

// assertAllTyped fails unless every hammered request either got a typed
// outcome or was canceled by its own client context.
func assertAllTyped(t *testing.T, results []hammerResult) map[Outcome]int {
	t.Helper()
	byOutcome := map[Outcome]int{}
	for i, r := range results {
		switch {
		case r.resp != nil:
			byOutcome[r.resp.Outcome]++
		case r.transportErr != nil && strings.Contains(r.transportErr.Error(), "context canceled"):
			// The client hung up; the server side still answered (asserted
			// via outcome counters by the callers that cancel).
		default:
			t.Errorf("request %d got neither envelope nor cancellation: %+v", i, r)
		}
	}
	return byOutcome
}

// assertAlive proves the daemon survived a storm: liveness and a fresh
// exact request both still work.
func assertAlive(t *testing.T, ts *httptest.Server) {
	t.Helper()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != 200 {
		t.Fatalf("daemon died: healthz %v %v", hr, err)
	}
	hr.Body.Close()
	_, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	if resp.Outcome != OutcomeExact {
		t.Fatalf("daemon not serving after storm: %+v", resp)
	}
}

// rearm keeps a fault site permanently armed: every period-th hit runs
// action, then the site is armed again. Reset() (deferred by every test)
// disarms for good.
func rearm(site string, period int64, action func()) {
	var arm func()
	arm = func() {
		faultinject.Arm(site, period, func() {
			arm()
			action()
		})
	}
	arm()
}

// TestChaosPanicStorm injects panics both below the budget layer (the cover
// hot path, contained by budget.Guard inside core.Decompose) and in the
// handler itself (the parse site, contained by the ServeHTTP barrier), under
// concurrent load. Every response must stay typed and the daemon must keep
// serving afterwards.
func TestChaosPanicStorm(t *testing.T) {
	defer faultinject.Reset()
	s := New(Config{Workers: 4, CheckEvery: 16, CacheCapacity: -1}) // cache off: every request must really run
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A bb-ghw request on cycle6 passes the cover site 12 times (4 bag
	// evaluations in the search, then a greedy and an exact cover of each of
	// its 4 kept bags), so a panic every 15th pass fails about half the
	// requests and leaves the rest healthy.
	rearm(faultinject.SiteCover, 15, func() { panic("chaos: cover exploded") })
	results := hammer(t, ts, 24, func(i int) (string, []byte, context.Context) {
		return "algo=bb-ghw&timeout=2s", []byte(cycle6HG), nil
	})
	byOutcome := assertAllTyped(t, results)
	if byOutcome[OutcomeError] == 0 {
		t.Error("panic storm produced no contained-error outcomes — injection did not land")
	}
	if byOutcome[OutcomeExact] == 0 {
		t.Error("panic storm wiped out every healthy request")
	}
	faultinject.Reset()

	rearm(faultinject.SiteServerParse, 3, func() { panic("chaos: parser exploded") })
	results = hammer(t, ts, 12, func(i int) (string, []byte, context.Context) {
		return "algo=bb-ghw", []byte(acyclic4HG), nil
	})
	byOutcome = assertAllTyped(t, results)
	if byOutcome[OutcomeError] == 0 {
		t.Error("handler-level panics produced no contained-error outcomes")
	}
	faultinject.Reset()
	assertAlive(t, ts)
}

// TestChaosSlowParseDeadlineStorm combines slow-loris parses with a storm of
// tiny deadlines against a small pool: the pool saturates, admission sheds
// load with typed 429s, admitted requests degrade at their deadlines, and
// nothing is ever dropped untyped.
func TestChaosSlowParseDeadlineStorm(t *testing.T) {
	defer faultinject.Reset()
	s := New(Config{Workers: 2, QueueDepth: 2, CheckEvery: 16, CacheCapacity: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	rearm(faultinject.SiteServerParse, 1, func() { time.Sleep(30 * time.Millisecond) })
	grid := grid12HG(t)
	results := hammer(t, ts, 24, func(i int) (string, []byte, context.Context) {
		return "algo=bb-ghw&timeout=20ms", grid, nil
	})
	byOutcome := assertAllTyped(t, results)
	if got := byOutcome[OutcomeRejected]; got == 0 {
		t.Error("storm against a 2+2 pool produced no backpressure rejections")
	}
	if byOutcome[OutcomeDegraded] == 0 {
		t.Error("deadline storm produced no degraded anytime results")
	}
	for i, r := range results {
		if r.resp == nil {
			continue
		}
		switch r.resp.Outcome {
		case OutcomeRejected:
			if r.status != http.StatusTooManyRequests {
				t.Errorf("request %d: rejected with status %d, want 429", i, r.status)
			}
			if r.resp.RetrySeconds <= 0 {
				t.Errorf("request %d: 429 without a retry hint", i)
			}
		case OutcomeDegraded:
			if r.resp.Width <= 0 {
				t.Errorf("request %d: degraded without an anytime width", i)
			}
		}
	}
	faultinject.Reset()
	assertAlive(t, ts)
}

// TestChaosOversizeStorm interleaves oversize bodies with healthy requests:
// the oversize ones all fail fast with typed 413s and never crowd out the
// real work.
func TestChaosOversizeStorm(t *testing.T) {
	s := New(Config{Workers: 4, MaxRequestBytes: 4 << 10, CacheCapacity: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	big := bytes.Repeat([]byte("x"), 64<<10)
	results := hammer(t, ts, 20, func(i int) (string, []byte, context.Context) {
		if i%2 == 0 {
			return "algo=bb-ghw", big, nil
		}
		return "algo=bb-ghw", []byte(cycle6HG), nil
	})
	byOutcome := assertAllTyped(t, results)
	if byOutcome[OutcomeRejected] != 10 {
		t.Errorf("oversize rejections = %d, want 10", byOutcome[OutcomeRejected])
	}
	if byOutcome[OutcomeExact] != 10 {
		t.Errorf("healthy exact results = %d, want 10", byOutcome[OutcomeExact])
	}
	for i, r := range results {
		if i%2 == 0 && r.resp != nil && r.status != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize request %d: status %d, want 413", i, r.status)
		}
	}
	assertAlive(t, ts)
}

// TestChaosCancelDuringDrain is the shutdown storm: long exact runs in
// flight, a client hanging up mid-run, a drain whose grace expires while
// work is still running, and new requests arriving during the drain. The
// contract: drain returns with zero in-flight requests, every admitted
// request was answered (server-side outcome counters account for all of
// them), in-flight runs come back degraded-not-dropped, and drain-time
// arrivals get typed 503s.
func TestChaosCancelDuringDrain(t *testing.T) {
	s := New(Config{Workers: 3, CheckEvery: 16, CacheCapacity: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	grid := grid12HG(t)
	cancelCtx, cancelClient := context.WithCancel(context.Background())
	var resultsMu sync.Mutex
	var results []hammerResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := hammer(t, ts, 3, func(i int) (string, []byte, context.Context) {
			if i == 0 {
				// This client hangs up mid-run; the server must still retire
				// the request cleanly.
				return "algo=bb-ghw&timeout=30s", grid, cancelCtx
			}
			return "algo=bb-ghw&timeout=30s", grid, nil
		})
		resultsMu.Lock()
		results = r
		resultsMu.Unlock()
	}()
	waitFor(t, 5*time.Second, func() bool { return s.InFlight() == 3 })

	cancelClient()
	rep := s.Drain(80 * time.Millisecond)
	if !rep.Forced {
		t.Error("drain of 30s-budget runs within 80ms grace must report Forced")
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("drain returned with %d requests still in flight", n)
	}

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hammered clients never returned after drain")
	}
	resultsMu.Lock()
	defer resultsMu.Unlock()
	byOutcome := assertAllTyped(t, results)
	if byOutcome[OutcomeDegraded] < 2 {
		t.Errorf("drained long runs: got outcomes %v, want >= 2 degraded", byOutcome)
	}
	for i, r := range results {
		if r.resp != nil && r.resp.Outcome == OutcomeDegraded {
			if r.resp.Stop != "canceled" {
				t.Errorf("request %d: drained run stopped on %q, want canceled", i, r.resp.Stop)
			}
			if r.resp.Width <= 0 {
				t.Errorf("request %d: drained run lost its anytime width", i)
			}
		}
	}

	// Zero dropped: the server answered exactly as many requests as it saw.
	var answered int64
	for _, o := range outcomes {
		answered += s.OutcomeCount(o)
	}
	if answered != 3 {
		t.Errorf("server answered %d of 3 admitted requests", answered)
	}

	// Arrivals during/after drain get typed 503s.
	hr, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	if hr.StatusCode != http.StatusServiceUnavailable || resp.Outcome != OutcomeRejected {
		t.Fatalf("post-drain arrival: %d %q", hr.StatusCode, resp.Outcome)
	}
}

// TestChaosDrainWaitsForQueued proves queued-but-not-yet-running requests
// keep their place during a graceful drain instead of being shed.
func TestChaosDrainWaitsForQueued(t *testing.T) {
	defer faultinject.Reset()
	s := New(Config{Workers: 1, QueueDepth: 4, CheckEvery: 16, CacheCapacity: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	release := make(chan struct{})
	faultinject.Arm(faultinject.SiteServerHandle, 1, func() { <-release })
	var queuedResp atomic.Pointer[Response]
	first := make(chan struct{})
	go func() {
		defer close(first)
		postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG)) // parks in the worker slot
	}()
	waitFor(t, time.Second, func() bool { return s.InFlight() == 1 })
	second := make(chan struct{})
	go func() {
		defer close(second)
		_, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(acyclic4HG)) // waits in queue
		queuedResp.Store(resp)
	}()
	waitFor(t, time.Second, func() bool { return s.pending.Load() == 2 })

	drained := make(chan DrainReport, 1)
	go func() { drained <- s.Drain(5 * time.Second) }()
	time.Sleep(10 * time.Millisecond) // let the drain flip admission off
	close(release)                    // un-park the slot; both requests must now retire

	select {
	case rep := <-drained:
		if rep.Forced {
			t.Error("drain had time to finish gracefully, reported Forced")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never returned")
	}
	<-first
	<-second
	if resp := queuedResp.Load(); resp == nil || resp.Outcome != OutcomeExact {
		t.Fatalf("queued request was shed during graceful drain: %+v", resp)
	}
}

// TestChaosHammerMixed is the kitchen-sink soak: healthy, malformed,
// oversize, streaming, deadline-stormed and panic-striken requests all at
// once. The only assertion that matters: every single one comes back typed,
// and the daemon is still standing.
func TestChaosHammerMixed(t *testing.T) {
	defer faultinject.Reset()
	s := New(Config{Workers: 4, QueueDepth: 8, MaxRequestBytes: 1 << 20, CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	rearm(faultinject.SiteCover, 50, func() { panic("chaos: sporadic cover panic") })
	grid := grid12HG(t)
	big := bytes.Repeat([]byte("y"), 2<<20)
	results := hammer(t, ts, 40, func(i int) (string, []byte, context.Context) {
		switch i % 5 {
		case 0:
			return "algo=bb-ghw", []byte(cycle6HG), nil
		case 1:
			return "algo=bb-ghw&timeout=15ms", grid, nil
		case 2:
			return "", big, nil
		case 3:
			return "algo=greedy", []byte(acyclic4HG), nil
		default:
			return fmt.Sprintf("algo=bb-ghw&stream=sse&timeout=25ms&seed=%d", i), grid, nil
		}
	})
	byOutcome := assertAllTyped(t, results)
	total := 0
	for _, n := range byOutcome {
		total += n
	}
	if total != 40 {
		t.Errorf("typed outcomes for %d of 40 requests: %v", total, byOutcome)
	}
	faultinject.Reset()
	assertAlive(t, ts)

	rep := s.Drain(2 * time.Second)
	if n := s.InFlight(); n != 0 {
		t.Fatalf("post-soak drain left %d in flight (report %+v)", n, rep)
	}
}

// TestChaosPortfolioRace storms the daemon with portfolio requests — plain,
// SSE-streamed, deadline-stormed and panic-stricken at once. A racing
// member's contained panic must fail only its own request (typed error
// outcome), never the daemon, and every concurrent race still answers typed.
func TestChaosPortfolioRace(t *testing.T) {
	defer faultinject.Reset()
	s := New(Config{Workers: 4, QueueDepth: 8, CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	rearm(faultinject.SiteCover, 400, func() { panic("chaos: sporadic cover panic") })
	grid := grid12HG(t)
	results := hammer(t, ts, 24, func(i int) (string, []byte, context.Context) {
		switch i % 4 {
		case 0:
			return "algo=portfolio", []byte(cycle6HG), nil
		case 1:
			return "algo=portfolio&timeout=40ms", grid, nil
		case 2:
			return fmt.Sprintf("algo=portfolio&stream=sse&timeout=30ms&seed=%d", i), grid, nil
		default:
			return "algo=portfolio", []byte(acyclic4HG), nil
		}
	})
	byOutcome := assertAllTyped(t, results)
	total := 0
	for _, n := range byOutcome {
		total += n
	}
	if total != 24 {
		t.Errorf("typed outcomes for %d of 24 requests: %v", total, byOutcome)
	}
	faultinject.Reset()
	assertAlive(t, ts)
	if rep := s.Drain(2 * time.Second); s.InFlight() != 0 {
		t.Fatalf("post-storm drain left requests in flight (report %+v)", rep)
	}
}
