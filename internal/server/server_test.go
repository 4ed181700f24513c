package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hypertree/internal/budget/faultinject"
	"hypertree/internal/hypergraph"
)

// cycle6HG is a 6-cycle as binary constraints: ghw 2, exact, solved in
// microseconds — the canonical happy-path payload.
const cycle6HG = "e1(v1,v2), e2(v2,v3), e3(v3,v4), e4(v4,v5), e5(v5,v6), e6(v6,v1)."

// acyclic4HG is an α-acyclic hypergraph: ghw 1.
const acyclic4HG = "c1(a,b,c), c2(c,d)."

// grid12HG renders a 12x12 grid hypergraph — far beyond what exact bb-ghw
// finishes in test time, so it is the standing "long run" payload.
func grid12HG(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := hypergraph.WriteHG(&b, hypergraph.Grid2D(12)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func postDecompose(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, *Response) {
	t.Helper()
	url := ts.URL + "/decompose"
	if query != "" {
		url += "?" + query
	}
	hr, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("response is not a typed envelope: %v", err)
	}
	return hr, &resp
}

func TestDecomposeExact(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	if hr.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	if resp.Outcome != OutcomeExact || !resp.Exact {
		t.Fatalf("outcome = %q (exact=%v), want exact", resp.Outcome, resp.Exact)
	}
	if resp.Width != 2 {
		t.Fatalf("ghw(C6) = %d, want 2", resp.Width)
	}
	if resp.N != 6 || resp.M != 6 {
		t.Fatalf("instance size %dx%d, want 6x6", resp.N, resp.M)
	}
	if len(resp.Timeline) == 0 {
		t.Error("missing anytime timeline")
	}

	_, resp = postDecompose(t, ts, "algo=bb-ghw", []byte(acyclic4HG))
	if resp.Outcome != OutcomeExact || resp.Width != 1 {
		t.Fatalf("acyclic: outcome %q width %d, want exact width 1", resp.Outcome, resp.Width)
	}
}

func TestDecomposeCachedRetry(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, first := postDecompose(t, ts, "algo=bb-ghw&seed=7", []byte(cycle6HG))
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}
	_, retry := postDecompose(t, ts, "algo=bb-ghw&seed=7", []byte(cycle6HG))
	if !retry.Cached {
		t.Fatal("identical retry must be served from the result cache")
	}
	if retry.Width != first.Width || retry.Outcome != OutcomeExact {
		t.Fatalf("cached retry disagrees: %+v vs %+v", retry, first)
	}
	if retry.Req == first.Req {
		t.Error("cached response must carry the retry's own request id")
	}
	// A different seed is a different key.
	_, other := postDecompose(t, ts, "algo=bb-ghw&seed=8", []byte(cycle6HG))
	if other.Cached {
		t.Fatal("different seed must miss the cache")
	}
	// The cached entry retains the tree for include=tree retries.
	_, withTree := postDecompose(t, ts, "algo=bb-ghw&seed=7&include=tree", []byte(cycle6HG))
	if !withTree.Cached || withTree.Tree == nil {
		t.Fatalf("include=tree retry: cached=%v tree=%v", withTree.Cached, withTree.Tree != nil)
	}
	if s.cache.stats().Hits != 2 {
		t.Fatalf("cache hits = %d, want 2", s.cache.stats().Hits)
	}
}

func TestDecomposeIncludeTree(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, resp := postDecompose(t, ts, "algo=bb-ghw&include=tree", []byte(cycle6HG))
	if resp.Tree == nil {
		t.Fatal("include=tree returned no tree")
	}
	tr := resp.Tree
	if tr.Width != resp.Width {
		t.Fatalf("tree width %d != response width %d", tr.Width, resp.Width)
	}
	if len(tr.Bags) == 0 || len(tr.Bags) != len(tr.Parent) || len(tr.Lambdas) != len(tr.Bags) {
		t.Fatalf("malformed tree: %d bags, %d parents, %d lambdas", len(tr.Bags), len(tr.Parent), len(tr.Lambdas))
	}
	roots := 0
	for _, p := range tr.Parent {
		if p == -1 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("tree has %d roots", roots)
	}
}

func TestDecomposeDegradedAtDeadline(t *testing.T) {
	s := New(Config{CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, resp := postDecompose(t, ts, "algo=bb-ghw&timeout=50ms", grid12HG(t))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("degraded runs are successes: status %d", hr.StatusCode)
	}
	if resp.Outcome != OutcomeDegraded {
		t.Fatalf("outcome = %q, want degraded", resp.Outcome)
	}
	if resp.Stop != "deadline" {
		t.Fatalf("stop = %q, want deadline", resp.Stop)
	}
	if resp.Width <= 0 {
		t.Fatalf("degraded run must still carry its best anytime width, got %d", resp.Width)
	}
	if resp.Exact {
		t.Error("interrupted run cannot be exact")
	}
}

// TestDecomposeGreedyExactCached: serial greedy whose width meets the proven
// lower bound answers exact, and an exact answer is what the result cache
// keeps, so the retry is a hit.
func TestDecomposeGreedyExactCached(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var adder bytes.Buffer
	if err := hypergraph.WriteHG(&adder, hypergraph.Adder(15)); err != nil {
		t.Fatal(err)
	}
	_, first := postDecompose(t, ts, "algo=greedy&timeout=1s", adder.Bytes())
	if first.Outcome != OutcomeExact || !first.Exact || first.Width != first.LowerBound {
		t.Fatalf("greedy on adder_15: outcome %q width %d lb %d, want exact", first.Outcome, first.Width, first.LowerBound)
	}
	_, retry := postDecompose(t, ts, "algo=greedy&timeout=1s", adder.Bytes())
	if !retry.Cached || retry.Width != first.Width {
		t.Fatalf("retry cached=%v width %d, want a cache hit of width %d", retry.Cached, retry.Width, first.Width)
	}
}

// TestDecomposeGreedyDeadlineDegraded: greedy's exact-cover pass is budgeted,
// so on a b10-sized circuit, whose widest bag takes seconds to cover exactly,
// a 150 ms request answers degraded at about its deadline instead of
// holding a worker for the whole search.
func TestDecomposeGreedyDeadlineDegraded(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var b10 bytes.Buffer
	if err := hypergraph.WriteHG(&b10, hypergraph.RandomCircuit(189, 200, 4003)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, resp := postDecompose(t, ts, "algo=greedy&timeout=150ms", b10.Bytes())
	took := time.Since(start)
	if resp.Outcome != OutcomeDegraded || resp.Stop != "deadline" || resp.Width <= 0 {
		t.Fatalf("outcome %q stop %q width %d, want a degraded deadline answer", resp.Outcome, resp.Stop, resp.Width)
	}
	if took > 5*time.Second {
		t.Fatalf("answered after %v: the exact pass ignored the 150ms deadline", took)
	}
}

func TestDecomposeTimeoutClampedToMax(t *testing.T) {
	s := New(Config{MaxTimeout: 50 * time.Millisecond, CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	start := time.Now()
	_, resp := postDecompose(t, ts, "algo=bb-ghw&timeout=1h", grid12HG(t))
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("1h request was not clamped (took %v)", el)
	}
	if resp.Outcome != OutcomeDegraded {
		t.Fatalf("outcome = %q, want degraded at the clamped deadline", resp.Outcome)
	}
}

func TestRejections(t *testing.T) {
	s := New(Config{MaxRequestBytes: 256})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name   string
		query  string
		body   []byte
		status int
		errSub string
	}{
		{"unknown algo", "algo=quantum", []byte(cycle6HG), http.StatusBadRequest, "unknown algorithm"},
		{"unknown format", "format=yaml", []byte(cycle6HG), http.StatusBadRequest, "unknown format"},
		{"bad timeout", "timeout=-3s", []byte(cycle6HG), http.StatusBadRequest, "bad timeout"},
		{"negative workers", "workers=-2", []byte(cycle6HG), http.StatusBadRequest, "bad workers"},
		{"bad stream", "stream=websocket", []byte(cycle6HG), http.StatusBadRequest, "unknown stream"},
		{"oversize", "", bytes.Repeat([]byte("x"), 1024), http.StatusRequestEntityTooLarge, "payload exceeds"},
		{"malformed", "", []byte("not a hypergraph ("), http.StatusBadRequest, "parsing hg"},
		{"empty instance", "", []byte("% only a comment\n"), http.StatusUnprocessableEntity, "empty hypergraph"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hr, resp := postDecompose(t, ts, c.query, c.body)
			if hr.StatusCode != c.status {
				t.Fatalf("status = %d, want %d", hr.StatusCode, c.status)
			}
			if resp.Outcome != OutcomeRejected {
				t.Fatalf("outcome = %q, want rejected", resp.Outcome)
			}
			if !strings.Contains(resp.Error, c.errSub) {
				t.Fatalf("error %q does not mention %q", resp.Error, c.errSub)
			}
		})
	}
}

func TestAdmissionControl(t *testing.T) {
	defer faultinject.Reset()
	s := New(Config{Workers: 1, QueueDepth: -1}) // pool of 1, no queue
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Park the only worker slot: the armed hook blocks the first admitted
	// request inside its slot until released.
	release := make(chan struct{})
	faultinject.Arm(faultinject.SiteServerHandle, 1, func() { <-release })
	firstDone := make(chan *Response, 1)
	go func() {
		_, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
		firstDone <- resp
	}()
	waitFor(t, time.Second, func() bool { return s.InFlight() == 1 })

	hr, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(acyclic4HG))
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", hr.StatusCode)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if resp.Outcome != OutcomeRejected || resp.RetrySeconds <= 0 {
		t.Fatalf("saturated response not typed for backpressure: %+v", resp)
	}

	close(release)
	select {
	case first := <-firstDone:
		if first.Outcome != OutcomeExact {
			t.Fatalf("parked request finished %q, want exact", first.Outcome)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never finished")
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (int, string) {
		hr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(hr.Body)
		return hr.StatusCode, b.String()
	}
	if st, body := get("/healthz"); st != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", st, body)
	}
	if st, body := get("/readyz"); st != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("readyz: %d %q", st, body)
	}

	postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	st, body := get("/metrics")
	if st != 200 {
		t.Fatalf("metrics status %d", st)
	}
	for _, want := range []string{
		`hypertree_daemon_requests_total{outcome="exact"} 1`,
		"hypertree_daemon_inflight 0",
		"hypertree_daemon_workers",
		"hypertree_daemon_result_cache_misses 1",
		"hypertree_daemon_draining 0",
		"hypertree_obs_events_total", // the promoted obs counters ride along
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	rep := s.Drain(time.Second)
	if rep.Forced {
		t.Error("idle drain must not need force")
	}
	if st, body := get("/readyz"); st != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz: %d %q", st, body)
	}
	if st, _ := get("/healthz"); st != 200 {
		t.Fatal("healthz must stay live while draining")
	}
	hr, resp := postDecompose(t, ts, "", []byte(cycle6HG))
	if hr.StatusCode != http.StatusServiceUnavailable || resp.Outcome != OutcomeRejected {
		t.Fatalf("draining POST: %d %q", hr.StatusCode, resp.Outcome)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "hypertree_daemon_draining 1") {
		t.Error("metrics must report draining")
	}
}

func TestSSEStream(t *testing.T) {
	s := New(Config{CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, err := http.Post(ts.URL+"/decompose?algo=bb-ghw&stream=sse&timeout=100ms", "text/plain",
		bytes.NewReader(grid12HG(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(hr.Body); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, "event: algo_start") {
		t.Error("stream missing algo_start frame")
	}
	if !strings.Contains(body, "event: improve") {
		t.Error("stream missing improve frames")
	}
	resp := lastResultFrame(t, body)
	if resp.Outcome != OutcomeDegraded || resp.Width <= 0 {
		t.Fatalf("streamed terminal result: %+v", resp)
	}
}

// lastResultFrame extracts the Response from the stream's final
// "event: result" frame.
func lastResultFrame(t *testing.T, body string) *Response {
	t.Helper()
	idx := strings.LastIndex(body, "event: result\ndata: ")
	if idx < 0 {
		t.Fatalf("no result frame in stream:\n%s", body)
	}
	payload := body[idx+len("event: result\ndata: "):]
	if nl := strings.IndexByte(payload, '\n'); nl >= 0 {
		payload = payload[:nl]
	}
	var resp Response
	if err := json.Unmarshal([]byte(payload), &resp); err != nil {
		t.Fatalf("result frame is not a Response: %v", err)
	}
	return &resp
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestResultCacheFIFOEviction(t *testing.T) {
	c := newFIFOCache[*Response](8)
	for i := 0; i < 32; i++ {
		c.store(fmt.Sprintf("key-%d", i), &Response{Width: i})
	}
	st := c.stats()
	if st.Size != 8 {
		t.Fatalf("size = %d, want capacity 8", st.Size)
	}
	if st.Evictions != 24 {
		t.Fatalf("evictions = %d, want 24", st.Evictions)
	}
	if c := newFIFOCache[*Response](0); c != nil {
		t.Fatal("capacity 0 must disable the cache")
	}
	var nilCache *fifoCache[*Response]
	if _, ok := nilCache.lookup("x"); ok {
		t.Fatal("nil cache must miss")
	}
	nilCache.store("x", &Response{}) // must not panic
}

// TestPortfolioDefaultServes pins the daemon's new default: a request naming
// no algorithm runs the portfolio and still gets the typed envelope — exact
// on an instance the race closes instantly, with the merged anytime timeline
// attached.
func TestPortfolioDefaultServes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, resp := postDecompose(t, ts, "", []byte(cycle6HG))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	if resp.Algo != "portfolio" {
		t.Fatalf("default algo = %q, want portfolio", resp.Algo)
	}
	if resp.Outcome != OutcomeExact || !resp.Exact {
		t.Fatalf("cycle6 through the portfolio: outcome %q exact=%v", resp.Outcome, resp.Exact)
	}
	if resp.Width != 2 || resp.LowerBound != 2 {
		t.Fatalf("width=%d lb=%d, want 2/2", resp.Width, resp.LowerBound)
	}
	if len(resp.Timeline) == 0 {
		t.Fatal("portfolio response missing the merged timeline")
	}
}

// TestPortfolioDegradedEnvelope: a deadline mid-race comes back as the
// degraded outcome with the best validated width, exactly like a single
// solver would.
func TestPortfolioDegradedEnvelope(t *testing.T) {
	s := New(Config{CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, resp := postDecompose(t, ts, "algo=portfolio&timeout=100ms", grid12HG(t))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	if resp.Outcome != OutcomeDegraded || resp.Stop != "deadline" {
		t.Fatalf("outcome %q stop %q, want degraded deadline", resp.Outcome, resp.Stop)
	}
	if resp.Width <= 0 {
		t.Fatalf("degraded race returned no width: %+v", resp)
	}
	if resp.Exact {
		t.Fatal("degraded race must not claim exactness")
	}
}

// TestPortfolioSSEStream: the streamed race interleaves member-labeled
// frames with the portfolio's merged improve frames, and terminates in one
// typed result frame.
func TestPortfolioSSEStream(t *testing.T) {
	s := New(Config{CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, err := http.Post(ts.URL+"/decompose?algo=portfolio&stream=sse&timeout=150ms", "text/plain",
		bytes.NewReader(grid12HG(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(hr.Body); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, "event: improve") {
		t.Error("stream missing improve frames")
	}
	if !strings.Contains(body, `"algo":"portfolio"`) {
		t.Error("stream missing portfolio-labeled frames")
	}
	resp := lastResultFrame(t, body)
	if resp.Outcome != OutcomeDegraded || resp.Width <= 0 {
		t.Fatalf("streamed terminal result: %+v", resp)
	}
}
