// Command experiments regenerates the thesis's evaluation tables.
//
// Usage:
//
//	experiments -table 5.1 -scale small
//	experiments -table all -scale smoke
//	experiments -bench-json -bench-out BENCH_ghw.json
//	experiments -bench-check BENCH_ghw.json
//
// Scales: smoke (seconds), small (about a minute per table), full
// (approximates the thesis's one-hour-per-instance protocol).
//
// -bench-json runs the ghw width-evaluator microbenchmarks (engine, engine
// with a discarding recorder, engine without cache) over a fixed instance set,
// prints benchstat-compatible lines, and writes a JSON report; -bench-check
// validates such a report and exits; -bench-diff old.json new.json compares
// two reports and exits 1 when any entry slowed beyond
// -bench-diff-threshold (make bench-diff runs it as a regression gate).
//
// -workers N runs the per-instance rows of the instance-outer tables on N
// goroutines. Every instance keeps its own seed and budget and rows are
// emitted in the serial order, so the table values are unchanged — only the
// wall clock of a whole table run drops (on multi-core machines).
//
// -metrics-addr serves runtime metrics while experiments run: per-kind obs
// event counters and the cover-cache hit ratio in OpenMetrics text at
// /metrics, expvar at /debug/vars and pprof profiles at /debug/pprof/ (see
// OBSERVABILITY.md).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hypertree/internal/bench"
	"hypertree/internal/obs"
)

// tablesCompleted counts finished tables, exported at /debug/vars so a long
// -table all run can be watched from outside.
var tablesCompleted = expvar.NewInt("experiments_tables_completed")

func main() {
	var (
		table              = flag.String("table", "all", "table id ("+strings.Join(bench.TableIDs(), ", ")+") or 'all'")
		scale              = flag.String("scale", "small", "scale: smoke | small | full")
		benchJSON          = flag.Bool("bench-json", false, "run the ghw evaluator microbenchmarks and write a JSON report")
		benchOut           = flag.String("bench-out", "BENCH_ghw.json", "output path for -bench-json")
		benchCheck         = flag.String("bench-check", "", "validate a -bench-json report at this path and exit")
		benchDiff          = flag.String("bench-diff", "", "old -bench-json report; compare against the new report given as the next argument and exit 1 on regression")
		benchDiffThreshold = flag.Float64("bench-diff-threshold", bench.DefaultDiffThreshold,
			"relative ns/op slowdown tolerated by -bench-diff (0.5 = 50%)")
		queryDemo   = flag.String("query-demo", "", "decompose this registry instance once, compile the join-tree plan, and serve a demo query workload (e.g. grid2d_10)")
		metricsAddr = flag.String("metrics-addr", "", "serve OpenMetrics event counters (/metrics), expvar (/debug/vars) and pprof (/debug/pprof/) on this address, e.g. localhost:6060")
		workers     = flag.Int("workers", 0, "run the instance rows of the instance-outer tables on this many goroutines (0/1 = serial; table values are identical either way)")
	)
	flag.Parse()

	// obsCounters aggregates every table run's instrumentation events for the
	// metrics endpoints; nil when no endpoint is serving (the nil-Recorder
	// contract keeps the runs unobserved and uninstrumented in that case).
	var obsCounters *obs.EventCounters
	if *metricsAddr != "" {
		obsCounters = obs.NewEventCounters()
		expvar.Publish("obs_events", expvar.Func(func() interface{} { return obsCounters.Counts() }))
		// expvar and net/http/pprof register on the default mux at import;
		// /metrics serves the same counters in OpenMetrics text for scrapers.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obsCounters.WriteOpenMetrics(w); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: /metrics:", err)
			}
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: metrics server:", err)
			}
		}()
		fmt.Printf("experiments: serving metrics on http://%s/metrics, /debug/vars and /debug/pprof/\n",
			*metricsAddr)
	}

	if *benchDiff != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-bench-diff needs the new report as its only positional argument: experiments -bench-diff old.json new.json"))
		}
		out, regressed, err := bench.CompareBenchJSON(*benchDiff, flag.Arg(0), *benchDiffThreshold)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		if regressed {
			fmt.Fprintln(os.Stderr, "experiments: bench regression detected")
			os.Exit(1)
		}
		fmt.Println("experiments: no bench regression")
		return
	}
	if *benchCheck != "" {
		if err := bench.CheckBenchJSON(*benchCheck); err != nil {
			fatal(err)
		}
		fmt.Printf("experiments: %s is a well-formed bench report\n", *benchCheck)
		return
	}
	if *queryDemo != "" {
		if err := bench.RunQueryDemo(*queryDemo, func(format string, args ...interface{}) {
			fmt.Printf(format, args...)
		}); err != nil {
			fatal(err)
		}
		return
	}
	if *benchJSON {
		report, err := bench.RunBenchJSON(nil, func(format string, args ...interface{}) {
			fmt.Printf(format, args...)
		})
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteBenchJSON(report, *benchOut); err != nil {
			fatal(err)
		}
		fmt.Printf("experiments: wrote %s (%d entries)\n", *benchOut, len(report.Entries))
		return
	}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	// SIGINT/SIGTERM cancel in-flight runs: the current table still prints
	// (with anytime per-instance results), and no further table starts.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	sc.Ctx = ctx
	sc.Workers = *workers
	if obsCounters != nil {
		sc.Recorder = obsCounters
	}

	ids := bench.TableIDs()
	if *table != "all" {
		if _, ok := bench.Tables[*table]; !ok {
			fatal(fmt.Errorf("unknown table %q (have %v)", *table, bench.TableIDs()))
		}
		ids = []string{*table}
	}
	ran := map[string]bool{}
	for _, id := range ids {
		runner := bench.Tables[id]
		// 8.2 and 9.2 share their runner with 8.1/9.1; don't run twice in
		// 'all' mode.
		key := fmt.Sprintf("%p", runner)
		if *table == "all" && ran[key] {
			continue
		}
		ran[key] = true
		fmt.Println(runner(sc).Format())
		tablesCompleted.Add(1)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; remaining tables skipped")
			break
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
