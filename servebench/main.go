// Command servebench is the socket-level serving benchmark of the
// decomposition daemon. For each run it starts a fresh cmd/decomposed on
// loopback with default flags, drives one seeded workload over two
// keep-alive connections in a closed loop for a fixed window, stops the
// daemon, checks every answer, and prints the end-to-end metrics as one
// JSON object on the last line of standard output. With --trace 1 it
// measures the workload untraced and then traced, and prints the per-layer
// split instead. See README.md for the workloads and the metrics.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash servebench/run.sh --workload decompose-deadline --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --workload all --seed 1 --seconds 20
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setups is how many times an untraced run sets the daemon up; setup_s is
// their median.
const setups = 3

// inprocDecompose bounds the traced run's in-process decompose pass: each
// input costs up to the deadline.
const inprocDecompose = 24

type config struct {
	daemon, out string
	seed        int64
	seconds     int
}

// metricDef names a metric and its unit; the order is the print order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MiB"},
	{"width_mean", "edges"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg   config
		name  = flag.String("workload", "", "workload to run: decompose-deadline, query-cold, query-hot, or all")
		trace = flag.Int("trace", 0, "1 measures the workload untraced, then traced, and reports the per-layer metrics")
	)
	flag.StringVar(&cfg.daemon, "daemon", ".bench_build/decomposed", "path to the built cmd/decomposed")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for daemon logs and trace files")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.Parse()
	if *name == "" || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload, --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// The client shares the machine's cores with the daemon; it never
	// needs more than one thread per connection.
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))
	if err := os.MkdirAll(filepath.Join(cfg.out, "trace"), 0o755); err != nil {
		fatal(err)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	ok := true
	for _, n := range names {
		res, err := runWorkload(cfg, n, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", n, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct && res.Failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

// runWorkload measures one workload and prints its human-readable report;
// the caller prints the JSON line.
func runWorkload(cfg config, name string, traced bool) (*result, error) {
	capacity := cfg.seconds * 40
	if name == "query-cold" {
		capacity = cfg.seconds * 400
	}
	wl, err := newWorkload(name, cfg.seed, capacity)
	if err != nil {
		return nil, err
	}
	bin, err := fileSHA256(cfg.daemon)
	if err != nil {
		return nil, err
	}
	meta := map[string]any{
		"workload": name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit("."), "daemon_sha256": bin,
	}
	mj, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mj)

	n := setups
	if traced {
		n = 1
	}
	base, err := measure(cfg, wl, n, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: base.failed == 0, Attempted: len(base.win.samples), Failed: base.failed, Metrics: map[string]metric{}}
	e2e, err := base.endToEnd()
	if err != nil {
		return nil, err
	}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		report(name, res, nil)
		return res, nil
	}

	tr := newTracer()
	tm, err := measure(cfg, wl, 1, tr)
	if err != nil {
		return nil, err
	}
	te2e, err := tm.endToEnd()
	if err != nil {
		return nil, err
	}
	if name == "decompose-deadline" {
		var sent []*input
		for _, s := range tm.win.samples[:min(inprocDecompose, len(tm.win.samples))] {
			sent = append(sent, wl.timed[s.idx])
		}
		if err := decomposeSpans(sent, tr); err != nil {
			return nil, err
		}
	}
	layers := tm.perLayer(tr)
	layers.set("trace.overhead_p50_pct", 100*(te2e["p50_ms"]-e2e["p50_ms"])/e2e["p50_ms"])
	layers.set("trace.overhead_req_per_s_pct", 100*(e2e["req_per_s"]-te2e["req_per_s"])/e2e["req_per_s"])
	bad := tm.reconcile(tr)
	res.Attempted += len(tm.win.samples)
	res.Failed += tm.failed + bad
	res.Correct = res.Correct && tm.failed == 0 && bad == 0
	for _, m := range perLayer {
		v, ok := layers.values[m.name]
		if !ok {
			if _, named := layers.dropped[m.name]; !named {
				layers.dropped[m.name] = "not reached by this workload"
			}
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	tail := map[string]any{"metrics": res.Metrics, "dropped": layers.dropped, "untraced": e2e, "traced": te2e}
	if err := tr.write(path, meta, tail); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Printf("trace written to %s (%d spans)\n", path, len(tr.spans))
	report(name, res, layers.dropped)
	return res, nil
}

// report prints a run's metrics with their units, then any per-layer
// metric the run could not measure and why.
func report(name string, res *result, dropped map[string]string) {
	fmt.Printf("%s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	defs := endToEnd
	if dropped != nil {
		defs = perLayer
	}
	for _, m := range defs {
		if reason, ok := dropped[m.name]; ok {
			fmt.Printf("  %-34s %14s  dropped: %s\n", m.name, "-", reason)
			continue
		}
		fmt.Printf("  %-34s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
}

// commit names the checked-out commit from .git without running git, or
// "unknown" outside a git work tree (the benchmark also runs from plain
// source copies).
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// measured is one measurement: the set-ups, one timed window, and the
// daemon-side counters around it.
type measured struct {
	wl     *workload
	setup  []float64 // seconds per set-up
	warm   []*window // the warm-up traffic of each set-up
	win    *window
	cpu    time.Duration
	rssMB  float64
	before map[string]float64 // /metrics around the window (traced only)
	after  map[string]float64
	// Filled by evaluate: one verdict per window sample.
	verdicts []verdict
	failed   int
	exp      map[*cspInput]*expected
}

// verdict is one window request, decoded and checked. It keeps only what
// the metrics need: a query-hot window holds tens of thousands.
type verdict struct {
	ok      bool
	err     error
	outcome string
	width   int
	t       timings
	dec     *decomposeResponse // decompose-deadline: stop, nodes, ledger
	plan    *planJSON          // query-*: the served plan
}

// measure sets the daemon up n times (keeping the last one), runs the
// timed window, stops the daemon, and checks every answer.
func measure(cfg config, wl *workload, n int, tr *tracer) (*measured, error) {
	m := &measured{wl: wl}
	var d *daemon
	defer func() { d.stop() }()
	for k := 0; k < n; k++ {
		if err := d.stop(); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		d, err = startDaemon(cfg.daemon, filepath.Join(cfg.out, "daemon-"+wl.name+".log"))
		if err != nil {
			return nil, err
		}
		w, err := drive(d.addr, wl.warmup, false, time.Minute, 1<<20, nil)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		m.warm = append(m.warm, w)
		for _, s := range w.samples {
			if s.err != nil || s.status != 200 {
				return nil, fmt.Errorf("warm-up request %d failed: status %d, %v: %s", s.idx, s.status, s.err, s.body)
			}
		}
	}
	var err error
	if tr != nil {
		if m.before, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	if err := m.timedWindow(d, cfg.seconds, tr); err != nil {
		return nil, err
	}
	if tr != nil {
		if m.after, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	if m.win.exhausted {
		fmt.Fprintf(os.Stderr, "servebench: %s sent its whole input stream (%d) before the window closed\n", wl.name, len(wl.timed))
	}
	start := time.Now()
	if err := m.evaluate(tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servebench: %s: %d requests in %.1fs, checked in %.1fs\n",
		wl.name, len(m.win.samples), m.win.elapsed.Seconds(), time.Since(start).Seconds())
	return m, nil
}

// timedWindow runs the closed loop against d, recording the daemon's CPU
// time over the window and sampling its resident memory every 50 ms. The
// median sample is reported: the peak (VmHWM) is set by whichever GC cycle
// ran late, and moved 10-25% between identical runs.
func (m *measured) timedWindow(d *daemon, seconds int, tr *tracer) error {
	// query-hot answers ~2500 requests a second with ~1 KB each.
	arena := seconds << 18
	if m.wl.cycle {
		arena = seconds << 21
	}
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	var (
		mb     []float64
		rssErr error
		stop   = make(chan struct{})
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		mb, rssErr = d.sampleRSS(50*time.Millisecond, stop)
	}()
	m.win, err = drive(d.addr, m.wl.timed, m.wl.cycle, time.Duration(seconds)*time.Second, arena, tr)
	close(stop)
	<-done
	cpu1, cpuErr := d.cpu()
	switch {
	case err != nil:
		return err
	case rssErr != nil:
		return fmt.Errorf("sampling the daemon's memory: %w", rssErr)
	case cpuErr != nil:
		return cpuErr
	}
	m.cpu = cpu1 - cpu0
	m.rssMB = median(mb)
	return nil
}

// evaluate decodes and checks every window response. A request fails when
// the transport failed, the status is not 200, the envelope does not decode
// or carries no answer, or the answer does not check.
func (m *measured) evaluate(tr *tracer) error {
	if len(m.wl.csps) > 0 {
		var batches []*queryInput
		for _, s := range m.win.samples {
			batches = append(batches, m.wl.timed[s.idx%len(m.wl.timed)].q)
		}
		var err error
		if m.exp, err = expectAll(batches, tr); err != nil {
			return err
		}
	}
	m.verdicts = make([]verdict, len(m.win.samples))
	for i := range m.win.samples {
		v := m.judge(&m.win.samples[i])
		if !v.ok {
			m.failed++
			if m.failed <= 3 {
				fmt.Fprintf(os.Stderr, "servebench: %s request %d failed: %v\n", m.wl.name, m.win.samples[i].idx, v.err)
			}
		}
		m.verdicts[i] = v
	}
	return nil
}

func (m *measured) judge(s *sample) verdict {
	switch {
	case s.err != nil:
		return verdict{err: s.err}
	case s.status != 200:
		return verdict{err: fmt.Errorf("status %d: %.200s", s.status, s.body)}
	}
	in := m.wl.timed[s.idx%len(m.wl.timed)]
	if in.q == nil {
		var r decomposeResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return verdict{err: err}
		}
		if r.Timings == nil || !answered(r.Outcome) {
			return verdict{err: fmt.Errorf("outcome %q: %s", r.Outcome, r.Error)}
		}
		if err := checkTree(in.h, r.Tree, r.Width, r.LowerBound); err != nil {
			return verdict{err: err}
		}
		r.Tree = nil
		return verdict{ok: true, outcome: r.Outcome, width: r.Width, t: *r.Timings, dec: &r}
	}
	var r queryResponse
	if err := json.Unmarshal(s.body, &r); err != nil {
		return verdict{err: err}
	}
	if r.Timings == nil || r.Plan == nil || !answered(r.Outcome) {
		return verdict{err: fmt.Errorf("outcome %q: %s", r.Outcome, r.Error)}
	}
	e := m.exp[in.q.c]
	if r.Plan.Width != e.width {
		return verdict{err: fmt.Errorf("plan width %d, the in-process greedy plan has %d", r.Plan.Width, e.width)}
	}
	if err := checkAnswers(e.c, in.q.queries, e.counts[in.q], r.Results); err != nil {
		return verdict{err: err}
	}
	return verdict{ok: true, outcome: r.Outcome, width: r.Plan.Width, t: *r.Timings, plan: r.Plan}
}

func answered(outcome string) bool {
	return outcome == "exact" || outcome == "upper-bound" || outcome == "degraded"
}

// endToEnd computes the end-to-end metrics. Failed requests count as
// missing every latency percentile: they enter as +Inf, and a percentile
// that lands on one reads as the whole window.
func (m *measured) endToEnd() (map[string]float64, error) {
	lat := make([]float64, len(m.win.samples))
	var widths []float64
	okN := 0
	for i, s := range m.win.samples {
		v := m.verdicts[i]
		if !v.ok {
			lat[i] = math.Inf(1)
			continue
		}
		okN++
		lat[i] = float64(s.latency()) / 1e6
		widths = append(widths, float64(v.width))
	}
	win := m.win.elapsed.Seconds()
	out := map[string]float64{
		"setup_s":        median(m.setup),
		"req_per_s":      float64(okN) / win,
		"cpu_ms_per_req": ratio(float64(m.cpu)/1e6, float64(len(lat))),
		"rss_mb":         m.rssMB,
		"width_mean":     mean(widths),
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}} {
		v, err := percentile(lat, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w; lengthen --seconds", p.name, err)
		}
		if math.IsInf(v, 1) {
			v = win * 1000
		}
		out[p.name] = v
	}
	return out, nil
}

// reconcile checks that every answered request of a traced window splits
// exactly into server phases, the server's unphased remainder and the
// transport residual, with no negative part; it returns how many did not,
// and attaches each request's server-side facts to its span.
func (m *measured) reconcile(tr *tracer) int {
	bad := 0
	attrs := make(map[int64]map[string]any, len(m.win.samples))
	for i, s := range m.win.samples {
		v := m.verdicts[i]
		a := map[string]any{"status": s.status, "latency_ns": s.end - s.start}
		attrs[s.span] = a
		if !v.ok {
			a["error"] = fmt.Sprint(v.err)
			continue
		}
		t := &v.t
		a["outcome"], a["width"] = v.outcome, v.width
		if v.dec != nil {
			a["stop"], a["nodes"], a["attribution"] = v.dec.Stop, v.dec.Nodes, v.dec.Attribution
		} else {
			a["plan"] = v.plan
		}
		residual := (s.end - s.start) - t.Total
		unphased := t.Total - t.phases()
		a["timings"], a["residual_ns"], a["unphased_ns"] = t, residual, unphased
		if residual < 0 || unphased < 0 {
			bad++
			if bad <= 3 {
				fmt.Fprintf(os.Stderr, "servebench: request %d does not reconcile: latency %dns, server total %dns, phases %dns\n",
					s.idx, s.end-s.start, t.Total, t.phases())
			}
		}
	}
	tr.attachAll(attrs)
	return bad
}
