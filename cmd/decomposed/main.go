// Command decomposed is the decomposition-as-a-service daemon: a long-lived
// HTTP/JSON server around internal/server that accepts hypergraph payloads,
// runs them on a bounded worker pool under per-request budgets, and degrades
// gracefully — anytime widths at the deadline, typed rejections under
// overload, contained panics, and a drain on SIGTERM that answers every
// in-flight request before exiting.
//
// Usage:
//
//	decomposed -addr :8080
//	decomposed -addr 127.0.0.1:0 -workers 4 -queue 16 -max-timeout 30s
//	decomposed -trace runs.jsonl -drain-grace 10s
//
// The first SIGINT/SIGTERM starts a graceful drain (stop admitting, finish
// or budget-cancel in-flight work, flush the trace) and exits 0; a second
// signal abandons the drain and exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/obs"
	"hypertree/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth beyond the pool (0 = default, -1 = no queue)")
		maxBytes   = flag.Int64("max-bytes", 0, "request body cap in bytes (0 = default)")
		timeout    = flag.Duration("timeout", 0, "default per-request budget (0 = server default)")
		maxTimeout = flag.Duration("max-timeout", 0, "ceiling on the per-request budget a client can ask for (0 = server default)")
		maxNodes   = flag.Int64("max-nodes", 0, "ceiling on the per-request search-node budget (0 = unlimited)")
		cacheCap   = flag.Int("cache", 0, "exact-result cache capacity in entries (0 = default, -1 = disabled)")
		planCap    = flag.Int("plan-cache", 0, "compiled-plan cache capacity in entries for /query (0 = default, -1 = disabled)")
		algo       = flag.String("algo", "", "default algorithm when the request names none (empty = portfolio)")
		tracePath  = flag.String("trace", "", "append every served run's instrumentation events as JSONL to this file")
		accessPath = flag.String("access-log", "", "append one JSON line per finished request to this file (- = stdout)")
		slowN      = flag.Int("slow", 0, "slowest-requests ring size for /debug/slow and the drain dump (0 = default, -1 = disabled)")
		drainGrace = flag.Duration("drain-grace", 15*time.Second, "how long a drain lets in-flight runs finish before canceling their budgets")
	)
	flag.Parse()

	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0, got %d", *workers))
	}
	var defaultAlgo core.Algorithm
	if *algo != "" {
		a, err := core.ParseAlgorithm(*algo)
		if err != nil {
			fatal(err)
		}
		defaultAlgo = a
	}

	var trace *obs.JSONLWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		trace = obs.NewJSONLWriter(f)
	}
	var accessLog *os.File
	if *accessPath == "-" {
		accessLog = os.Stdout
	} else if *accessPath != "" {
		f, err := os.Create(*accessPath)
		if err != nil {
			fatal(err)
		}
		accessLog = f
	}

	cfg := server.Config{
		Workers:           core.ClampWorkers(*workers),
		QueueDepth:        *queue,
		MaxRequestBytes:   *maxBytes,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxNodes:          *maxNodes,
		CacheCapacity:     *cacheCap,
		PlanCacheCapacity: *planCap,
		Algorithm:         defaultAlgo,
		SlowN:             *slowN,
	}
	if trace != nil {
		// Assign only a live writer: a nil *JSONLWriter boxed into the
		// Recorder interface would look non-nil to the server.
		cfg.Trace = trace
	}
	if accessLog != nil {
		// Same typed-nil discipline as the trace writer above.
		cfg.AccessLog = accessLog
	}
	srv := server.New(cfg)

	// First signal: graceful drain. Second signal: give up immediately —
	// the operator asked twice, something is stuck. The handler goes in
	// before the address is announced: a supervisor may signal as soon as it
	// reads that line, and a signal landing before Notify would kill the
	// process with the default action instead of draining it.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	// Listen before announcing, so "-addr :0" callers (tests, supervisors)
	// can read the actual port from the first stdout line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("decomposed: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("decomposed: %v: draining (grace %v; signal again to force exit)\n", sig, *drainGrace)
	}
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "decomposed: second signal, abandoning drain")
		os.Exit(2)
	}()

	rep := srv.Drain(*drainGrace)
	// The listener closes only after the drain, so every admitted request
	// keeps its connection until its response is written.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "decomposed: shutdown:", err)
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			fatal(fmt.Errorf("writing trace %s: %w", *tracePath, err))
		}
	}
	if accessLog != nil && accessLog != os.Stdout {
		if err := accessLog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "decomposed: closing access log:", err)
		}
	}
	// Dump the slowest retained requests: the last chance to see why the
	// tail was slow once the process is gone.
	if slow := srv.SlowRuns(); len(slow) > 0 {
		fmt.Printf("decomposed: slowest %d requests this run:\n", len(slow))
		for _, sr := range slow {
			fmt.Printf("  %s [%s] %s: %v total, %v queued, %d events\n",
				sr.Req, sr.Algo, sr.Outcome,
				sr.Elapsed.Round(time.Millisecond), sr.QueueWait.Round(time.Millisecond),
				len(sr.Events))
		}
	}
	how := "all in-flight requests finished"
	if rep.Forced {
		how = "grace expired, in-flight budgets canceled (requests still answered)"
	}
	fmt.Printf("decomposed: drained in %v (%s)\n", rep.Waited.Round(time.Millisecond), how)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "decomposed:", err)
	os.Exit(1)
}
