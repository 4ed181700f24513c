// The -bench-json harness: Go testing.B microbenchmarks of the ghw width
// evaluator over named registry instances, run from cmd/experiments and
// serialized to a JSON report (BENCH_ghw.json in the repository records the
// reference run). Three modes per instance measure the layers of the cover
// engine: the memoizing engine, the same engine with a discarding recorder
// attached, and the engine with its cache disabled (pure bitset speed).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hypertree/internal/budget"
	"hypertree/internal/core"
	"hypertree/internal/elim"
	"hypertree/internal/htd"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/search"
	"hypertree/internal/setcover"
)

// DefaultBenchInstances are the registry hypergraphs the -bench-json mode
// measures: the grid family the thesis evaluates throughout, plus two
// circuit-shaped instances with different edge statistics.
var DefaultBenchInstances = []string{"grid2d_10", "grid2d_20", "adder_25", "bridge_15"}

// benchOrderings is how many fixed random orderings each measurement cycles
// through (so the cached mode sees repeated bags, as searches do).
const benchOrderings = 8

// SearchBenchInstances are the instances the whole-search modes (bb-serial /
// bb-par / detk-serial / portfolio) run on: the mid-size grids where the
// parallel BB engine has enough subtree to distribute.
var SearchBenchInstances = []string{"grid2d_10", "grid2d_14"}

const (
	// bbBenchNodes / detkBenchNodes bound every whole-search op by search
	// nodes, so bb-serial and bb-par do the same amount of algorithmic work
	// per op and their ns/op ratio is the engine's parallel speedup (≈1 on
	// a single-core machine).
	bbBenchNodes   = 25000
	detkBenchNodes = 5000
	// detkBenchK is the fixed width the det-k modes decide.
	detkBenchK = 3
	// parBenchWorkers is the worker count of the -par modes.
	parBenchWorkers = 4
)

// BenchEntry is one (instance, mode) measurement.
type BenchEntry struct {
	Instance string `json:"instance"`
	// Mode is "engine" (memo cache on), "engine-nooprec" (memo cache on,
	// a discarding obs recorder attached — the instrumentation-enabled
	// dispatch cost) or "engine-nocache" (bitsets only). The whole-search
	// modes "bb-serial" /
	// "bb-par" measure one node-budgeted BB-ghw run, serial vs.
	// Workers-parallel; "detk-serial" one node-budgeted det-k decision.
	Mode        string  `json:"mode"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Workers is the parallel worker count of the "-par" modes (0 = serial).
	Workers int `json:"workers,omitempty"`
	// Width sanity-checks that every mode computed the same values.
	Width int `json:"width"`
	// Cache counters, for the cached engine modes only.
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	// Served-latency percentiles and throughput, for the query-lat-* modes
	// only (each of their Iterations queries is timed individually).
	P50NS float64 `json:"p50_ns,omitempty"`
	P95NS float64 `json:"p95_ns,omitempty"`
	P99NS float64 `json:"p99_ns,omitempty"`
	QPS   float64 `json:"qps,omitempty"`
}

// BenchReport is the schema of BENCH_ghw.json.
type BenchReport struct {
	// Unit documents what one op is: a full GHWEvaluator.Width evaluation
	// of one elimination ordering with greedy covers.
	Unit string `json:"unit"`
	// SearchUnit documents the whole-search modes' op: one node-budgeted
	// BB-ghw run (bb-*) or det-k width-k decision (detk-*).
	SearchUnit string `json:"search_unit,omitempty"`
	// QueryUnit documents the query-serving modes' op (see queryserve.go).
	QueryUnit string       `json:"query_unit,omitempty"`
	Entries   []BenchEntry `json:"entries"`
}

// RunBenchJSON benchmarks the given registry instances (nil selects
// DefaultBenchInstances) and returns the report. Progress lines in
// benchstat format go to w via fmt.Fprintf when logf is non-nil.
func RunBenchJSON(instances []string, logf func(format string, args ...interface{})) (*BenchReport, error) {
	if instances == nil {
		instances = DefaultBenchInstances
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	report := &BenchReport{Unit: "GHWEvaluator.Width (greedy covers) of one ordering"}
	for _, name := range instances {
		inst, err := Hyper(name)
		if err != nil {
			return nil, err
		}
		h := inst.Build()
		rng := rand.New(rand.NewSource(42))
		orders := make([][]int, benchOrderings)
		for i := range orders {
			orders[i] = rng.Perm(h.N())
		}
		engEval := elim.NewGHWEvaluator(h, false, nil)
		noopEng := setcover.NewEngine(h, setcover.DefaultCacheCapacity)
		noopEng.SetRecorder(obs.Noop, 1)
		noopEval := elim.NewGHWEvaluatorWithEngine(noopEng, false, nil)
		coldEval := elim.NewGHWEvaluatorWithEngine(setcover.NewEngine(h, 0), false, nil)
		modes := []benchMode{
			{"engine", engEval.Width, engEval.CoverCacheStats},
			{"engine-nooprec", noopEval.Width, noopEng.CacheStats},
			{"engine-nocache", coldEval.Width, nil},
		}

		for _, mode := range modes {
			width := mode.width(orders[0])
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mode.width(orders[i%len(orders)])
				}
			})
			entry := BenchEntry{
				Instance:    name,
				Mode:        mode.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Width:       width,
			}
			if mode.stats != nil {
				s := mode.stats()
				entry.CacheHits, entry.CacheMisses, entry.CacheEvictions = s.Hits, s.Misses, s.Evictions
			}
			report.Entries = append(report.Entries, entry)
			logf("BenchmarkGHWWidth/%s/%s\t%s\n", name, mode.name, r.String()+"\t"+r.MemString())
		}
	}
	report.SearchUnit = fmt.Sprintf("bb-*: one BB-ghw run (%d nodes); detk-*: one det-k k=%d decision (%d nodes); portfolio: one solver race (%d shared nodes)",
		bbBenchNodes, detkBenchK, detkBenchNodes, bbBenchNodes)
	for _, name := range SearchBenchInstances {
		inst, err := Hyper(name)
		if err != nil {
			return nil, err
		}
		h := inst.Build()
		modes := []searchBenchMode{
			{"bb-serial", 0, benchBBWidth},
			{"bb-par", parBenchWorkers, benchBBWidth},
			{"detk-serial", 0, benchDetKWidth},
			{"portfolio", 0, benchPortfolioWidth},
		}
		for _, mode := range modes {
			width := mode.width(h, mode.workers)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mode.width(h, mode.workers)
				}
			})
			report.Entries = append(report.Entries, BenchEntry{
				Instance:    name,
				Mode:        mode.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Width:       width,
				Workers:     mode.workers,
			})
			logf("BenchmarkSearch/%s/%s\t%s\n", name, mode.name, r.String()+"\t"+r.MemString())
		}
	}
	report.QueryUnit = "query-compile: one engine.CompileBudget (nil budget); query-serial/par/lat-*: one pinned Cursor.Solve"
	if err := runQueryBench(report, logf); err != nil {
		return nil, err
	}
	return report, nil
}

// searchBenchMode is one whole-search measurement: a full (budgeted) run of
// an exact engine, serial (workers = 0) or parallel.
type searchBenchMode struct {
	name    string
	workers int
	width   func(h *hypergraph.Hypergraph, workers int) int
}

// benchBBWidth runs one node-budgeted BB-ghw search and returns its anytime
// width. Serial and parallel ops tick the same node budget, so their ns/op
// compare like-for-like.
func benchBBWidth(h *hypergraph.Hypergraph, workers int) int {
	r := search.BBGHW(h, search.Options{MaxNodes: bbBenchNodes, Seed: 1, Workers: workers})
	return r.Width
}

// benchPortfolioWidth runs one portfolio race on the same shared node budget
// the bb modes use and returns its anytime width. Which member reaches the
// budget first is a scheduling race, so the mode carries the parallel noise
// floor in diffs and its width is exempt from the evaluator cross-check.
func benchPortfolioWidth(h *hypergraph.Hypergraph, workers int) int {
	d, err := core.DecomposePortfolio(h, core.Options{MaxNodes: bbBenchNodes, Seed: 1})
	if err != nil {
		return -1
	}
	return d.Width
}

// benchDetKWidth runs one node-budgeted det-k width-detkBenchK decision and
// returns k when a decomposition was found, else -1. det-k-decomp is
// serial, so there is no worker count to pass on.
func benchDetKWidth(h *hypergraph.Hypergraph, _ int) int {
	b := budget.New(context.Background(), budget.Limits{MaxNodes: detkBenchNodes})
	_, ok, _ := htd.DecideHW(h, detkBenchK, b)
	if ok {
		return detkBenchK
	}
	return -1
}

// benchMode is one measured evaluation path for an instance.
type benchMode struct {
	name  string
	width func(order []int) int
	stats func() setcover.CacheStats
}

// WriteBenchJSON writes the report to path with a trailing newline. Encoding
// and file-close errors both surface, so a report truncated by a full disk is
// an error rather than a silently short file.
func WriteBenchJSON(report *BenchReport, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// CheckBenchJSON validates that path holds a well-formed, non-empty bench
// report with plausible measurements; it is what `make bench-smoke` runs
// against the committed BENCH_ghw.json.
func CheckBenchJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var report BenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		return fmt.Errorf("bench: %s is not valid JSON: %w", path, err)
	}
	if report.Unit == "" {
		return fmt.Errorf("bench: %s is missing the unit field", path)
	}
	if len(report.Entries) == 0 {
		return fmt.Errorf("bench: %s has no entries", path)
	}
	byInstance := map[string]map[string]BenchEntry{}
	for i, e := range report.Entries {
		if e.Instance == "" || e.Mode == "" {
			return fmt.Errorf("bench: entry %d is missing instance/mode", i)
		}
		if e.Iterations <= 0 || e.NsPerOp <= 0 {
			return fmt.Errorf("bench: entry %d (%s/%s) has non-positive measurements", i, e.Instance, e.Mode)
		}
		if byInstance[e.Instance] == nil {
			byInstance[e.Instance] = map[string]BenchEntry{}
		}
		byInstance[e.Instance][e.Mode] = e
	}
	for inst, ms := range byInstance {
		if eng, okE := ms["engine"]; okE {
			// Every evaluator mode computes the same orderings
			// deterministically, so their widths must agree with the
			// reference engine mode. The whole-search modes measure
			// different ops (anytime runs, where the parallel schedule
			// legitimately shifts the truncation point), so they are
			// exempt from this cross-check.
			for mode, e := range ms {
				if !evaluatorBenchModes[mode] {
					continue
				}
				if e.Width != eng.Width {
					return fmt.Errorf("bench: %s: engine width %d != %s width %d", inst, eng.Width, mode, e.Width)
				}
			}
		}
		// Every parallel search mode must come with its serial baseline, or
		// the report cannot say what the parallel engine is compared against.
		for mode, e := range ms {
			if !strings.HasSuffix(mode, "-par") {
				continue
			}
			serial := strings.TrimSuffix(mode, "-par") + "-serial"
			if _, ok := ms[serial]; !ok {
				return fmt.Errorf("bench: %s: mode %s has no %s baseline entry", inst, mode, serial)
			}
			if e.Workers < 2 {
				return fmt.Errorf("bench: %s: mode %s has workers %d (want >= 2)", inst, mode, e.Workers)
			}
		}
	}
	return nil
}

// evaluatorBenchModes are the modes that evaluate the same fixed orderings
// and therefore must all report the engine mode's width.
var evaluatorBenchModes = map[string]bool{
	"engine": true, "engine-nooprec": true, "engine-nocache": true,
}
