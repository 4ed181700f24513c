// Package obs is the unified instrumentation layer: every algorithm in this
// repository emits the same typed events — run start/stop, budget checkpoint
// ticks, anytime best-width improvements, per-generation GA summaries,
// cover-cache traffic snapshots — through a Recorder, and every consumer
// (the in-memory RunStats aggregator, the JSONL trace writer, the periodic
// progress reporter) is just a Recorder implementation.
//
// The thesis's empirical chapters judge heuristics by trajectories (best
// width over time, nodes expanded, generations to convergence), not only by
// terminal results; this package is what makes those trajectories observable
// without printf debugging.
//
// Design rules:
//
//   - A nil Recorder means "instrumentation disabled" and is the default
//     everywhere. Hot paths guard emissions with a single nil check; the
//     disabled cost is one branch (see BenchmarkNoopRecorder).
//   - Events ride on existing control-flow edges — budget cooperative
//     checkpoints, generation boundaries, best-so-far improvements — never
//     on per-work-unit inner loops.
//   - Recorder implementations must be safe for concurrent use: SAIGA
//     islands, parallel GA workers and a shared cover engine all record
//     into one Recorder.
//   - The package depends only on the standard library and imports nothing
//     from this repository, so every internal package can use it.
package obs

import "time"

// Kind names an event type. The full taxonomy is documented in
// OBSERVABILITY.md; ValidTrace enforces it.
type Kind string

// The event taxonomy.
const (
	// KindStart opens a run: algorithm label plus instance size (N vertices,
	// M hyperedges).
	KindStart Kind = "algo_start"
	// KindStop closes a run: final width, lower bound, exactness, effort
	// counters and the budget stop reason (empty = ran to completion).
	KindStop Kind = "algo_stop"
	// KindCheckpoint is one budget checkpoint observer round: nodes so far
	// and elapsed time. The budget polls its limits every CheckEvery work
	// units but runs observers on the first passing checkpoint and then at
	// most once per millisecond of run time, so a busy run emits about one
	// per millisecond per observer. These are the heartbeat of a trace — a
	// long gap (well over the millisecond pacing) between checkpoints is a
	// stall.
	KindCheckpoint Kind = "checkpoint"
	// KindImprove records an anytime best-width improvement: the new width
	// with the node/evaluation/generation counters at the moment it was
	// found. Within one run, improvements are non-increasing in width and
	// non-decreasing in time.
	KindImprove Kind = "improve"
	// KindLowerBound records an improved proven lower bound (A*'s max
	// popped f, det-k-decomp's refuted widths).
	KindLowerBound Kind = "lower_bound"
	// KindGeneration is a GA/SAIGA per-generation (per-epoch, for islands)
	// fitness summary.
	KindGeneration Kind = "generation"
	// KindCoverCache is a cumulative snapshot of a cover engine's memo
	// cache counters (hits, misses, evictions, size), sampled every
	// SampleEvery-th cover query.
	KindCoverCache Kind = "cover_cache"
	// KindAttempt is one det-k-decomp width attempt: K is the width tried,
	// Found whether a decomposition of that width exists.
	KindAttempt Kind = "detk_attempt"
	// KindMemSample is a sampled runtime.MemStats snapshot riding the budget
	// checkpoint observer rounds (every MemSampler.every rounds): heap in use,
	// heap reserved, live objects, GC cycles and total pause. These are what
	// diagnose the memory blow-ups that kill det-k-style searches in practice.
	KindMemSample Kind = "mem_sample"
	// KindSpan is one finished phase of a request's serving lifecycle
	// (queue_wait, parse, cache, solve, encode, and the pseudo-phase total):
	// Phase names it, Dur is how long it took, T is when it *ended* relative
	// to the request's arrival. Spans are emitted by the decomposition daemon,
	// one per phase per request, each stamped with the request id — they are
	// what turns "this request took 2 seconds" into "1.9 of them were queue
	// wait". Note the clock: span T is request-relative while solver events
	// inside the same request are budget-relative (the solve span marks the
	// offset between the two bases).
	KindSpan Kind = "span"
	// KindAttr is one member's terminal attribution record: after a run ends,
	// one attr event per portfolio member (and exactly one for a serial run)
	// summarizes that member's share of the bill — attributed nodes, CPU-time
	// estimate (Dur), cover-cache traffic, checkpoints, improvements
	// contributed, best lower bound, node share (Share) and final Role
	// (winner / aborted-loser / deadline / ...). The per-member Nodes fields
	// of a portfolio's attr events sum exactly to the run's global node
	// count — the conservation invariant tracestat's attribution report
	// re-checks.
	KindAttr Kind = "attr"
)

// Event is one instrumentation record. Fields are kind-specific; unset
// fields marshal away under omitempty. T is the only universally present
// field besides Kind: nanoseconds since the run's budget started (or since
// the recorder was created, for budget-less runs).
type Event struct {
	Kind Kind `json:"kind"`
	// T is the elapsed time into the run at which the event was emitted.
	T time.Duration `json:"t_ns"`
	// Algo labels the run ("astar-tw", "ga-ghw", ...). Present on
	// algo_start/algo_stop; other events inherit the label of the run that
	// contains them.
	Algo string `json:"algo,omitempty"`
	// N and M are the instance size (vertices, hyperedges) on algo_start.
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`
	// Width is the best width achieved (improve, algo_stop) or the
	// generation's best fitness (generation).
	Width int `json:"width,omitempty"`
	// LowerBound is the best proven lower bound so far.
	LowerBound int `json:"lower_bound,omitempty"`
	// Exact reports a width proved optimal (algo_stop).
	Exact bool `json:"exact,omitempty"`
	// Nodes and Evaluations are the effort counters at emission time:
	// search-tree expansions and fitness evaluations.
	Nodes       int64 `json:"nodes,omitempty"`
	Evaluations int64 `json:"evaluations,omitempty"`
	// Generation is the 1-based GA generation (SAIGA: epoch) the event
	// belongs to.
	Generation int `json:"generation,omitempty"`
	// Island is the 1-based SAIGA island an event belongs to (0 = not an
	// island event).
	Island int `json:"island,omitempty"`
	// MeanWidth is the generation's mean fitness over the evaluated
	// individuals (generation events; 0 when unknown).
	MeanWidth float64 `json:"mean_width,omitempty"`
	// K and Found describe a det-k-decomp attempt.
	K     int  `json:"k,omitempty"`
	Found bool `json:"found,omitempty"`
	// Open and MaxOpen are the A* open-list size at emission and its
	// high-water mark; Closed is the duplicate-detection set size (dedup
	// mode only). Emitted on checkpoint and algo_stop events.
	Open    int `json:"open,omitempty"`
	MaxOpen int `json:"max_open,omitempty"`
	Closed  int `json:"closed,omitempty"`
	// Depth and Backtracks are the BB search-shape gauges on checkpoint
	// events: the current elimination-prefix depth and the cumulative count
	// of exhausted subtrees.
	Depth      int   `json:"depth,omitempty"`
	Backtracks int64 `json:"backtracks,omitempty"`
	// WidthStd and DistinctWidths are the population-diversity fields of
	// generation events: the standard deviation of the scored widths and the
	// number of distinct width values in the generation (a collapsed GA has
	// WidthStd near 0 and DistinctWidths 1).
	WidthStd       float64 `json:"width_std,omitempty"`
	DistinctWidths int     `json:"distinct_widths,omitempty"`
	// The mem_sample payload: heap bytes in use / reserved from the OS, live
	// objects, completed GC cycles and cumulative GC pause, plus the process
	// goroutine count.
	HeapAlloc   uint64        `json:"heap_alloc,omitempty"`
	HeapSys     uint64        `json:"heap_sys,omitempty"`
	HeapObjects uint64        `json:"heap_objects,omitempty"`
	NumGC       uint32        `json:"num_gc,omitempty"`
	GCPause     time.Duration `json:"gc_pause_ns,omitempty"`
	Goroutines  int           `json:"goroutines,omitempty"`
	// Cache counters are cumulative cover-engine totals at emission time.
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	CacheSize      int   `json:"cache_size,omitempty"`
	// WorkerID is the 1-based parallel worker that emitted the event; 0 (and
	// absent from JSON) means the run's single main goroutine. Parallel BB
	// workers stamp it on their improve events so a trace shows which worker
	// tightened the shared incumbent.
	WorkerID int `json:"worker_id,omitempty"`
	// Steals and Requeues are the work-stealing counters of a parallel
	// search's algo_stop event: tasks taken from another worker's deque, and
	// tasks pushed back when a worker split its subtree to feed idle peers.
	Steals   int64 `json:"steals,omitempty"`
	Requeues int64 `json:"requeues,omitempty"`
	// Stop is the budget stop reason on algo_stop (empty = completed).
	Stop string `json:"stop,omitempty"`
	// Req is the serving request the event belongs to, stamped by the
	// decomposition daemon (see WithReq). Empty outside a daemon: CLI runs
	// are one run per process and need no correlation key. In a daemon trace
	// it is what separates the interleaved event streams of concurrent
	// requests.
	Req string `json:"req,omitempty"`
	// Phase and Dur are the span payload: the lifecycle phase that finished
	// and how long it took. Outcome is set on the "total" span only — the
	// request's typed disposition (exact, degraded, rejected, ...), so a
	// trace can slice latency distributions by outcome without joining
	// against an access log.
	Phase   string        `json:"phase,omitempty"`
	Dur     time.Duration `json:"dur_ns,omitempty"`
	Outcome string        `json:"outcome,omitempty"`
	// Role, Improvements and Share are the attr payload: the member's final
	// role in the run (winner, aborted-loser, deadline, ...), how many
	// incumbent improvements it claimed, and its fraction of the run's global
	// node count. The attr event reuses Nodes/Dur/Cache*/Width/LowerBound for
	// the rest of the ledger; see internal/obs/attr.
	Role         string  `json:"role,omitempty"`
	Improvements int     `json:"improvements,omitempty"`
	Share        float64 `json:"share,omitempty"`
}

// Kinds lists the full event taxonomy, for validation.
var Kinds = []Kind{
	KindStart, KindStop, KindCheckpoint, KindImprove, KindLowerBound,
	KindGeneration, KindCoverCache, KindAttempt, KindMemSample, KindSpan,
	KindAttr,
}

// ValidKind reports whether k is part of the taxonomy.
func ValidKind(k Kind) bool {
	for _, known := range Kinds {
		if k == known {
			return true
		}
	}
	return false
}

// Recorder consumes events. Implementations must be safe for concurrent
// use; Record must not retain e (it is reused by some emitters).
//
// A nil Recorder disables instrumentation; emitters guard with a nil check,
// so the disabled cost is one branch per emission site.
type Recorder interface {
	Record(e Event)
}

// noop discards every event. It exists for callers that need a non-nil
// Recorder (e.g. to measure the enabled-but-idle dispatch cost); library
// code treats nil as the disabled default instead.
type noop struct{}

func (noop) Record(Event) {}

// Noop is a Recorder that discards everything.
var Noop Recorder = noop{}

// reqStamper wraps a Recorder, stamping every event with a request id.
type reqStamper struct {
	rec Recorder
	req string
}

func (s reqStamper) Record(e Event) {
	if e.Req == "" {
		e.Req = s.req
	}
	s.rec.Record(e)
}

// WithReq wraps rec so every event it records carries the request id req
// (events that already have one keep it). The daemon gives each request its
// own wrapper around the shared trace sink, so one JSONL file interleaves
// many concurrent runs and stays attributable. A nil rec returns nil,
// preserving the disabled fast path.
func WithReq(rec Recorder, req string) Recorder {
	if rec == nil {
		return nil
	}
	return reqStamper{rec: rec, req: req}
}

// algoStamper wraps a Recorder, stamping every event with a run label.
type algoStamper struct {
	rec  Recorder
	algo string
}

func (s algoStamper) Record(e Event) {
	if e.Algo == "" {
		e.Algo = s.algo
	}
	s.rec.Record(e)
}

// WithAlgo wraps rec so every event it records carries the run label algo
// (events that already have one keep it). A portfolio run interleaves
// several concurrent solvers into one trace; ValidateTrace scopes its
// anytime-width check per (req, algo) pair, but only when concurrent
// emitters stamp the label explicitly — the algo_start fallback assumes a
// single run at a time. A nil rec returns nil, preserving the disabled fast
// path.
func WithAlgo(rec Recorder, algo string) Recorder {
	if rec == nil {
		return nil
	}
	return algoStamper{rec: rec, algo: algo}
}

// multi fans events out to several recorders in order.
type multi []Recorder

func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

// Tee combines recorders, skipping nils. It returns nil when every argument
// is nil, so emitters keep their single nil-check fast path, and returns the
// sole survivor unwrapped when only one is non-nil.
func Tee(rs ...Recorder) Recorder {
	var live multi
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
