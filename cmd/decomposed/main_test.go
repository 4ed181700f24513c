// Exec-based smoke tests for the daemon binary: build it, run it, hit it
// with real HTTP over a real port, and shut it down with real signals. This
// is the layer the in-process httptest harness in internal/server cannot
// cover — flag wiring, the stdout address announcement, signal handling and
// process exit codes.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
)

// buildDaemon compiles the decomposed binary once per test binary run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "decomposed")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is a running decomposed process plus its announced base URL.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stdout *bufio.Reader
	tail   bytes.Buffer // everything read from stdout after the address line
}

// startDaemon launches the binary on a kernel-assigned port and parses the
// base URL from the first stdout line.
func startDaemon(t *testing.T, bin string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	rd := bufio.NewReader(pipe)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("daemon never announced its address: %v", err)
	}
	const prefix = "decomposed: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected first stdout line %q", line)
	}
	return &daemon{cmd: cmd, url: strings.TrimSpace(line[len(prefix):]), stdout: rd}
}

// wait drains stdout and returns the process exit code (-1 for a wait
// failure that is not an exit status; callers assert on the code). Uses
// Errorf, not Fatalf, so it is safe from helper goroutines.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	io.Copy(&d.tail, d.stdout)
	err := d.cmd.Wait()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Errorf("wait: %v", err)
	return -1
}

// tryPost is the goroutine-safe variant of post: errors come back instead of
// failing the test, so background clients can race the daemon's shutdown.
func (d *daemon) tryPost(query string, body []byte) (int, map[string]any, error) {
	url := d.url + "/decompose"
	if query != "" {
		url += "?" + query
	}
	hr, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer hr.Body.Close()
	var resp map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return hr.StatusCode, nil, err
	}
	return hr.StatusCode, resp, nil
}

func (d *daemon) post(t *testing.T, query string, body []byte) (int, map[string]any) {
	t.Helper()
	status, resp, err := d.tryPost(query, body)
	if err != nil {
		t.Fatalf("POST /decompose?%s: %v", query, err)
	}
	return status, resp
}

// TestDaemonSmoke is the end-to-end happy path the Makefile's daemon-smoke
// target runs: start the daemon, POST a shipped example, get the exact
// width back, drain on SIGTERM, exit clean.
func TestDaemonSmoke(t *testing.T) {
	bin := buildDaemon(t)
	tracePath := filepath.Join(t.TempDir(), "daemon.jsonl")
	d := startDaemon(t, bin, "-workers", "2", "-drain-grace", "5s", "-trace", tracePath)

	payload, err := os.ReadFile(filepath.Join("..", "..", "examples", "instances", "cycle6.hg"))
	if err != nil {
		t.Fatal(err)
	}
	status, resp := d.post(t, "algo=bb-ghw", payload)
	if status != 200 || resp["outcome"] != "exact" || resp["width"] != float64(2) {
		t.Fatalf("cycle6 smoke: status %d, response %v", status, resp)
	}
	// A retry is served from the result cache — idempotent daemon contract.
	if _, resp := d.post(t, "algo=bb-ghw", payload); resp["cached"] != true {
		t.Errorf("retry not cached: %v", resp)
	}
	for _, ep := range []string{"/healthz", "/readyz", "/metrics"} {
		hr, err := http.Get(d.url + ep)
		if err != nil || hr.StatusCode != 200 {
			t.Fatalf("%s: %v %v", ep, hr, err)
		}
		hr.Body.Close()
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("SIGTERM drain exited %d, want 0\nstdout tail:\n%s", code, d.tail.String())
	}
	if !strings.Contains(d.tail.String(), "drained in") {
		t.Errorf("no drain report in stdout:\n%s", d.tail.String())
	}
	// The drain flushed the trace: a valid JSONL stream with the served
	// run's events, each stamped with its request id.
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace, []byte(`"req":"r000001"`)) {
		t.Errorf("trace not flushed or missing request stamps:\n%.400s", trace)
	}
}

// TestDaemonSignalAtStartup closes the start-up signal window: a supervisor
// may send SIGTERM the moment it reads the address line, so the handler must
// already be installed by then. Each start is signalled immediately and must
// drain and exit 0, never die of the default action.
func TestDaemonSignalAtStartup(t *testing.T) {
	bin := buildDaemon(t)
	for i := 0; i < 8; i++ {
		d := startDaemon(t, bin)
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if code := d.wait(t); code != 0 {
			t.Fatalf("start %d: SIGTERM at the announce line exited %d, want 0\nstdout tail:\n%s", i, code, d.tail.String())
		}
		if !strings.Contains(d.tail.String(), "draining") {
			t.Fatalf("start %d: no drain line in stdout:\n%s", i, d.tail.String())
		}
	}
}

// TestDaemonSmokeDrainInFlight proves the zero-dropped contract across the
// process boundary: a long run is in flight when SIGTERM lands, the grace is
// too short for it to finish, and the client still gets a typed degraded
// answer before the process exits 0.
func TestDaemonSmokeDrainInFlight(t *testing.T) {
	bin := buildDaemon(t)
	d := startDaemon(t, bin, "-workers", "2", "-drain-grace", "300ms")

	var grid bytes.Buffer
	if err := hypergraph.WriteHG(&grid, hypergraph.Grid2D(12)); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		resp   map[string]any
	}
	got := make(chan answer, 1)
	go func() {
		status, resp, err := d.tryPost("algo=bb-ghw&timeout=30s", grid.Bytes())
		if err != nil {
			t.Errorf("in-flight POST failed: %v", err)
		}
		got <- answer{status, resp}
	}()
	// Wait until the run is actually holding a worker slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hr, err := http.Get(d.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if strings.Contains(string(body), "hypertree_daemon_inflight 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long run never reached in-flight")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-got:
		if a.status != 200 || a.resp["outcome"] != "degraded" || a.resp["stop"] != "canceled" {
			t.Fatalf("drained in-flight run: status %d, response %v", a.status, a.resp)
		}
		if w, ok := a.resp["width"].(float64); !ok || w <= 0 {
			t.Fatalf("drained run lost its anytime width: %v", a.resp)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never answered during drain")
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("drain with in-flight work exited %d, want 0\nstdout tail:\n%s", code, d.tail.String())
	}
}

// TestDaemonSmokeSecondSignalForcesExit: an operator signaling twice gets an
// immediate exit 2 even though the drain grace has not expired.
func TestDaemonSmokeSecondSignalForcesExit(t *testing.T) {
	bin := buildDaemon(t)
	d := startDaemon(t, bin, "-workers", "1", "-drain-grace", "1h")

	var grid bytes.Buffer
	if err := hypergraph.WriteHG(&grid, hypergraph.Grid2D(12)); err != nil {
		t.Fatal(err)
	}
	// This client's connection dies with the process — errors are expected.
	go d.tryPost("algo=bb-ghw&timeout=1h&nodes=0", grid.Bytes())
	deadline := time.Now().Add(5 * time.Second)
	for {
		hr, err := http.Get(d.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if strings.Contains(string(body), "hypertree_daemon_inflight 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long run never reached in-flight")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Let the drain start (first line after the address announcement).
	line, err := d.stdout.ReadString('\n')
	if err != nil || !strings.Contains(line, "draining") {
		t.Fatalf("no drain announcement after first signal: %q %v", line, err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan int, 1)
	go func() { exited <- d.wait(t) }()
	select {
	case code := <-exited:
		if code != 2 {
			t.Fatalf("second signal exited %d, want 2", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second signal did not force an exit")
	}
}

// TestAttributionSmoke is the Makefile attr-smoke gate: a portfolio request
// through the live daemon must come back with a balanced attribution ledger
// in its envelope (member nodes summing to the global count, the winner
// named with a winner-role row), the cumulative hypertree_portfolio_member_*
// metric families must reflect it, and tracestat attr on the daemon's
// flushed trace must render the per-algorithm contribution table.
func TestAttributionSmoke(t *testing.T) {
	bin := buildDaemon(t)
	tracePath := filepath.Join(t.TempDir(), "attr.jsonl")
	d := startDaemon(t, bin, "-workers", "2", "-drain-grace", "5s", "-trace", tracePath)

	payload, err := os.ReadFile(filepath.Join("..", "..", "examples", "instances", "cycle6.hg"))
	if err != nil {
		t.Fatal(err)
	}
	status, resp := d.post(t, "algo=portfolio", payload)
	if status != 200 {
		t.Fatalf("portfolio request: status %d, %v", status, resp)
	}

	led, ok := resp["attribution"].(map[string]any)
	if !ok {
		t.Fatalf("envelope has no attribution block: %v", resp)
	}
	if led["portfolio"] != true {
		t.Fatalf("portfolio run's ledger not marked portfolio: %v", led)
	}
	members, _ := led["members"].([]any)
	if len(members) < 2 {
		t.Fatalf("portfolio ledger has %d member rows, want >= 2: %v", len(members), led)
	}
	// The conservation invariant, re-checked from the raw envelope JSON:
	// member nodes sum exactly to the ledger's global count, which is the
	// envelope's own node count. The envelope omits a zero count (a run whose
	// winner finished before any search node ticked), so absent reads as 0.
	envNodes, _ := resp["nodes"].(float64)
	var sum float64
	winner, _ := led["winner"].(string)
	winnerRole := ""
	for _, m := range members {
		row := m.(map[string]any)
		n, _ := row["nodes"].(float64)
		sum += n
		if row["algo"] == winner {
			winnerRole, _ = row["role"].(string)
		}
	}
	total, _ := led["total_nodes"].(float64)
	if sum != total || total != envNodes {
		t.Fatalf("ledger unbalanced: member sum %v, total_nodes %v, envelope nodes %v", sum, total, envNodes)
	}
	if winner == "" || winnerRole != "winner" {
		t.Fatalf("ledger winner %q has role %q, want a winner-role member row", winner, winnerRole)
	}

	hr, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	for _, want := range []string{
		`hypertree_portfolio_member_wins_total{algo="` + winner + `"} 1`,
		"# TYPE hypertree_portfolio_member_nodes_total counter",
		"# TYPE hypertree_portfolio_member_node_share gauge",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("drain exited %d\nstdout tail:\n%s", code, d.tail.String())
	}

	// The flushed trace carries the attr terminal events, and tracestat attr
	// renders them as the per-algorithm contribution table.
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace, []byte(`"kind":"attr"`)) {
		t.Fatalf("trace has no attr events:\n%.400s", trace)
	}
	tracestat := filepath.Join(t.TempDir(), "tracestat")
	if out, err := exec.Command("go", "build", "-o", tracestat, "../tracestat").CombinedOutput(); err != nil {
		t.Fatalf("building tracestat: %v\n%s", err, out)
	}
	out, err := exec.Command(tracestat, "attr", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("tracestat attr: %v\n%s", err, out)
	}
	for _, want := range []string{"attribution: 1 runs", "algo", "share", winner} {
		if !strings.Contains(string(out), want) {
			t.Errorf("tracestat attr missing %q:\n%s", want, out)
		}
	}
}

// TestDaemonRejectsNegativeWorkers: flag validation happens before the
// listener opens.
func TestDaemonRejectsNegativeWorkers(t *testing.T) {
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "-3")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("negative -workers: err %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "-workers must be >= 0") {
		t.Fatalf("missing validation message:\n%s", out)
	}
}

// TestLatencySmoke is the Makefile latency-smoke gate: start the daemon
// with tracing, access logging and the slow ring on, fire a mixed burst,
// and assert (1) /metrics exposes populated latency histograms with
// P50/P95/P99 summaries, (2) the access log has one JSON line per request,
// (3) the drain dumps the slowest requests, and (4) tracestat summary on
// the trace prints a sane per-phase breakdown.
func TestLatencySmoke(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "latency.jsonl")
	accessPath := filepath.Join(dir, "access.jsonl")
	d := startDaemon(t, bin, "-workers", "2", "-drain-grace", "5s",
		"-trace", tracePath, "-access-log", accessPath, "-slow", "4")

	payload, err := os.ReadFile(filepath.Join("..", "..", "examples", "instances", "cycle6.hg"))
	if err != nil {
		t.Fatal(err)
	}
	var grid bytes.Buffer
	if err := hypergraph.WriteHG(&grid, hypergraph.Grid2D(12)); err != nil {
		t.Fatal(err)
	}

	// The burst: exact solves, a cache hit, a rejection, a degraded run.
	for i := 0; i < 3; i++ {
		if status, resp := d.post(t, "algo=bb-ghw", payload); status != 200 {
			t.Fatalf("burst solve %d: status %d, %v", i, status, resp)
		}
	}
	if status, _, _ := d.tryPost("algo=nope", payload); status != 400 {
		t.Fatalf("rejection status = %d, want 400", status)
	}
	if status, resp := d.post(t, "algo=bb-ghw&timeout=200ms", grid.Bytes()); status != 200 || resp["outcome"] != "degraded" {
		t.Fatalf("degraded run: status %d, %v", status, resp)
	}

	// Every envelope carries waited_ms and a timings block.
	if _, resp := d.post(t, "algo=bb-ghw", payload); resp["timings"] == nil {
		t.Fatalf("envelope missing timings: %v", resp)
	}

	hr, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	for _, want := range []string{
		`hypertree_daemon_request_seconds_bucket{outcome="exact",le="+Inf"}`,
		`hypertree_daemon_request_seconds_bucket{outcome="degraded",le="+Inf"} 1`,
		"# TYPE hypertree_daemon_queue_wait_seconds histogram",
		`hypertree_daemon_request_latency_seconds{quantile="0.5"}`,
		`hypertree_daemon_request_latency_seconds{quantile="0.95"}`,
		`hypertree_daemon_request_latency_seconds{quantile="0.99"}`,
		`hypertree_daemon_phase_seconds{phase="queue_wait",quantile="0.99"}`,
		`hypertree_daemon_phase_seconds{phase="solve",quantile="0.5"}`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /debug/slow retains the degraded grid run as the slowest, with events.
	hr, err = http.Get(d.url + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slowPage struct {
		Retained int `json:"retained"`
		Runs     []struct {
			Req    string           `json:"req"`
			Events []map[string]any `json:"events"`
		} `json:"runs"`
	}
	err = json.NewDecoder(hr.Body).Decode(&slowPage)
	hr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if slowPage.Retained == 0 || len(slowPage.Runs[0].Events) == 0 {
		t.Fatalf("/debug/slow retained nothing useful: %+v", slowPage)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("drain exited %d\nstdout tail:\n%s", code, d.tail.String())
	}
	if !strings.Contains(d.tail.String(), "slowest") {
		t.Errorf("drain did not dump the slow ring:\n%s", d.tail.String())
	}

	// The access log: one JSON line per finished request (6 posts above).
	access, err := os.ReadFile(accessPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(access), []byte("\n"))
	if len(lines) != 6 {
		t.Fatalf("access log has %d lines, want 6:\n%s", len(lines), access)
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("access line %d not JSON: %v", i, err)
		}
		if rec["req"] == "" || rec["outcome"] == "" || rec["status"] == nil {
			t.Fatalf("access line %d incomplete: %s", i, line)
		}
	}

	// tracestat summary on the daemon trace prints the per-phase breakdown.
	tracestat := filepath.Join(t.TempDir(), "tracestat")
	if out, err := exec.Command("go", "build", "-o", tracestat, "../tracestat").CombinedOutput(); err != nil {
		t.Fatalf("building tracestat: %v\n%s", err, out)
	}
	out, err := exec.Command(tracestat, "summary", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("tracestat summary: %v\n%s", err, out)
	}
	for _, want := range []string{"requests: ", "latency: p50", "phase means:", "solve="} {
		if !strings.Contains(string(out), want) {
			t.Errorf("tracestat summary missing %q:\n%s", want, out)
		}
	}
}

// TestQuerySmoke is the process-boundary gate for the compiled join-tree
// query endpoint (the Makefile's query-smoke target): start the daemon with
// a bounded plan cache, POST a CSP with a mixed query batch, assert the
// hand-checkable answers, verify the second request serves from the plan
// cache, and confirm the hypertree_query_* metric families are populated.
func TestQuerySmoke(t *testing.T) {
	bin := buildDaemon(t)
	d := startDaemon(t, bin, "-workers", "2", "-plan-cache", "8", "-drain-grace", "5s")

	// A 3-variable boolean not-equal path: exactly two solutions,
	// (0,1,0) and (1,0,1).
	body := []byte(`{
		"csp": {
			"num_vars": 3,
			"domain": [0, 1],
			"var_names": ["x0", "x1", "x2"],
			"constraints": [
				{"scope": [0, 1], "tuples": [[0, 1], [1, 0]]},
				{"scope": [1, 2], "tuples": [[0, 1], [1, 0]]}
			]
		},
		"queries": [
			{"op": "count"},
			{"op": "solve", "assign": {"x0": 0}},
			{"op": "enumerate", "limit": 10}
		]
	}`)
	postQuery := func() map[string]any {
		t.Helper()
		hr, err := http.Post(d.url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if hr.StatusCode != 200 {
			t.Fatalf("POST /query: status %d", hr.StatusCode)
		}
		var resp map[string]any
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := postQuery()
	results, _ := resp["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %v, want 3 entries", resp["results"])
	}
	count := results[0].(map[string]any)
	if count["count"] != float64(2) {
		t.Errorf("count = %v, want 2", count["count"])
	}
	solve := results[1].(map[string]any)
	if sat, _ := solve["sat"].(bool); !sat {
		t.Errorf("pinned solve unsat: %v", solve)
	}
	enum := results[2].(map[string]any)
	if sols, _ := enum["solutions"].([]any); len(sols) != 2 {
		t.Errorf("enumerate = %v, want 2 solutions", enum["solutions"])
	}
	plan, _ := resp["plan"].(map[string]any)
	if plan == nil || plan["cached"] == true {
		t.Fatalf("first plan = %v, want a fresh compile", plan)
	}

	// Decompose once, serve many: the retry hits the plan cache.
	resp2 := postQuery()
	plan2, _ := resp2["plan"].(map[string]any)
	if plan2 == nil || plan2["cached"] != true {
		t.Fatalf("second plan = %v, want a cache hit", plan2)
	}

	hr, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	for _, want := range []string{
		"hypertree_query_plan_cache_hits 1",
		"hypertree_query_plan_cache_misses 1",
		`hypertree_query_queries_total{op="count"} 2`,
		"hypertree_query_request_latency_seconds",
		"hypertree_query_compile_seconds",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("SIGTERM drain exited %d, want 0\nstdout tail:\n%s", code, d.tail.String())
	}
}
