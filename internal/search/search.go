// Package search implements the exact algorithms of the thesis: the
// branch-and-bound searches over elimination orderings (BB-tw in the style
// of QuickBB/BB-tw, thesis §4.4; BB-ghw, Chapter 8) and the A* searches
// (A*-tw, Chapter 5; A*-ghw, Chapter 9). All four explore the same search
// tree — prefixes of elimination orderings — and share the pruning
// machinery: PR1, PR2, simplicial / strongly-almost-simplicial reductions,
// and per-node lower bounds.
package search

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"hypertree/internal/bounds"
	"hypertree/internal/budget"
	"hypertree/internal/elim"
	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/setcover"
)

// Options controls a search run.
type Options struct {
	// Timeout bounds wall-clock time; zero means unlimited.
	Timeout time.Duration
	// MaxNodes bounds the number of search-tree nodes expanded; zero means
	// unlimited.
	MaxNodes int64
	// Ctx optionally cancels the search at the cooperative checkpoints
	// (every 256 expansions); on cancellation the search returns its
	// best-so-far anytime result.
	Ctx context.Context
	// Budget, when non-nil, supersedes Ctx/Timeout/MaxNodes: the search
	// draws work units from it. core.Decompose shares one budget across an
	// algorithm run and its post-processing.
	Budget *budget.B
	// Seed drives the tie-breaking randomness of the bound heuristics.
	Seed int64
	// InitialUB, when positive, primes the search with a known upper bound
	// (widths >= InitialUB are pruned; a solution of exactly InitialUB is
	// assumed to exist elsewhere).
	InitialUB int
	// Shared, when non-nil, is a live cross-solver incumbent (a portfolio
	// race). The search adopts it at start like InitialUB and the serial
	// engine re-reads it at its pruning sync points, so another solver's
	// improvement tightens this search's pruning mid-run. The search never
	// writes to it — publication is the portfolio driver's job (it intercepts
	// improve events), keeping the "claims are realized elsewhere" invariant
	// in one place. Result.Ordering is nil when the final width came from the
	// incumbent rather than from an ordering this search realized itself.
	Shared *Incumbent
	// Engine, when non-nil, is the cover engine the ghw searches build their
	// evaluators on instead of creating their own, sharing its memo cache
	// with every other solver on the same engine. The search does not attach
	// its recorder to an injected engine (the engine's recorder fields are
	// unsynchronized; the sharing caller attaches one before fan-out).
	// Ignored by the treewidth searches.
	Engine *setcover.Engine
	// DisableReductions turns off the simplicial/almost-simplicial rules
	// (thesis §4.4.3); used by the ablation benchmarks.
	DisableReductions bool
	// DisablePR2 turns off pruning rule 2 (thesis §4.4.5).
	DisablePR2 bool
	// NodeLB selects whether per-node lower bounds are computed (minor-min-
	// width at interior nodes). Disabling degrades to plain depth-first
	// branch and bound on g alone.
	DisableNodeLB bool
	// Recorder, when non-nil, receives the run's instrumentation events
	// (improvements, checkpoints, cover-cache snapshots; see internal/obs).
	// Every run additionally aggregates into the RunStats attached to its
	// Result, whether or not a Recorder is set.
	Recorder obs.Recorder
	// Label names the run in instrumentation events; the entry points
	// default it ("astar-tw", "bb-ghw", ...).
	Label string
	// Workers selects the number of branch-and-bound worker goroutines.
	// Values <= 1 run the unchanged serial search (bit-identical to previous
	// releases). Larger values run the work-stealing parallel engine: the
	// root frontier is split into disjoint prefix subtrees, workers draw them
	// from per-worker deques (stealing when their own runs dry), and a shared
	// atomic incumbent width makes any worker's improvement tighten pruning
	// everywhere at once. Parallel runs keep the budget/anytime/panic
	// contracts (one shared budget; a worker panic cancels the siblings and
	// surfaces as *budget.PanicError), find the same optimal width and
	// exactness flag as serial runs, but may return a different optimal
	// ordering and explore a different number of nodes. Only the BB entry
	// points parallelize; A* ignores the knob (its shared open list does not
	// decompose the same way).
	Workers int
	// DedupeStates enables A* duplicate detection: two prefixes eliminating
	// the same vertex set leave the same residual graph, so only the one
	// with the smaller g needs expanding. An extension beyond the thesis's
	// algorithms (it notes the exponential queue as the main limitation).
	// Dedup subsumes PR2's non-adjacent case (swapped pairs reach the same
	// set), and PR2 is disabled alongside it because the two prunings'
	// correctness arguments do not compose.
	DedupeStates bool
}

// Result reports the outcome of a search.
type Result struct {
	// Width is the smallest width found (an upper bound on the optimum;
	// equal to it when Exact).
	Width int
	// LowerBound is the best proved lower bound on the optimum.
	LowerBound int
	// Exact reports whether Width was proved optimal.
	Exact bool
	// Ordering is an elimination ordering achieving Width. It is nil when
	// the priming InitialUB was never improved upon.
	Ordering []int
	// Nodes is the number of evaluated search states (each child evaluation
	// — step cost plus remainder lower bound — counts once; these dominate
	// the work and are what the MaxNodes budget limits).
	Nodes int64
	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
	// Stop says why the search ended early (deadline, node budget,
	// canceled); StopNone when it ran to completion and Exact holds.
	Stop budget.StopReason
	// CoverCacheHits and CoverCacheMisses report the bag-cover memo cache
	// counters of the ghw cost model's engine (zero for the treewidth
	// searches, which never cover bags).
	CoverCacheHits   int64
	CoverCacheMisses int64
	// Steals and Requeues are the work-stealing counters of a parallel run
	// (Options.Workers > 1; zero for serial runs): tasks a worker took from
	// another worker's deque, and tasks pushed back into the deques when a
	// worker split a subtree to feed idle peers.
	Steals   int64
	Requeues int64
	// Stats aggregates the run's instrumentation events: the anytime-width
	// timeline, proven-lower-bound trajectory, open-list high-water mark and
	// cover-cache traffic. Always populated.
	Stats *obs.RunStats
}

// budgetFor returns the run budget: the caller-supplied one, or a fresh
// budget built from the legacy Timeout/MaxNodes fields.
func (o Options) budgetFor() *budget.B {
	if o.Budget != nil {
		return o.Budget
	}
	return budget.New(o.Ctx, budget.Limits{Timeout: o.Timeout, MaxNodes: o.MaxNodes})
}

// gauges is the search-shape telemetry shared between a search loop and its
// budget checkpoint callback: the loop stores its current open-list size,
// duplicate-set size, prefix depth and backtrack count into atomics, and the
// checkpoint observer stamps them onto every checkpoint event. Atomics keep
// the loop's cost to one store per expansion and the callback race-free.
type gauges struct {
	open, maxOpen, closed atomic.Int64 // A*: open list, high-water, dedup set
	depth, backtracks     atomic.Int64 // BB: prefix depth, exhausted subtrees
}

// instrument sets up a run's recorder stack: every search aggregates into a
// fresh RunStats (attached to its Result), teed with the caller's Recorder;
// checkpoint events ride the budget's paced observer rounds — carrying
// g's search-shape gauges and sampled mem_sample snapshots — and sampled
// cover_cache events ride the ghw engine's queries. It emits the algo_start
// event.
func instrument(m model, opts Options, b *budget.B, defaultLabel string, g *gauges) (*obs.RunStats, obs.Recorder, string) {
	stats := obs.NewRunStats()
	rec := obs.Tee(stats, opts.Recorder)
	label := opts.Label
	if label == "" {
		label = defaultLabel
	}
	if opts.Engine == nil {
		// An injected engine is shared across concurrent solvers; its recorder
		// fields are unsynchronized, so only the sharing caller attaches one
		// (before fan-out). Internally-created engines are private to this run.
		m.setRecorder(rec, b.StartTime())
	}
	ms := obs.NewMemSampler(0)
	b.OnCheckpoint(func(nodes int64, elapsed time.Duration) {
		rec.Record(obs.Event{Kind: obs.KindCheckpoint, T: elapsed, Nodes: nodes,
			Open: int(g.open.Load()), MaxOpen: int(g.maxOpen.Load()),
			Closed: int(g.closed.Load()), Depth: int(g.depth.Load()),
			Backtracks: g.backtracks.Load()})
		ms.Sample(rec, elapsed)
	})
	n, edges := m.size()
	rec.Record(obs.Event{Kind: obs.KindStart, T: b.Elapsed(), Algo: label, N: n, M: edges})
	return stats, rec, label
}

// model abstracts the cost structure shared by the treewidth and ghw
// searches. The elimination graph it owns is the single mutable search
// state.
type model interface {
	graph() *elimgraph.ElimGraph
	// stepCost is the cost of eliminating v from the current state: the
	// live degree (treewidth) or the bag cover size (ghw). It must be
	// called before the elimination.
	stepCost(v int) int
	// remainderLB lower-bounds the optimal width of any completion of the
	// current state.
	remainderLB() int
	// completionCap upper-bounds the cost charged by completing the current
	// state in an arbitrary order (PR1; live-1 for treewidth, live for ghw).
	completionCap() int
	// initial returns the root lower bound, a heuristic upper bound and an
	// ordering achieving it.
	initial() (lb, ub int, ordering []int)
	// allowAlmostSimplicial reports whether the strongly-almost-simplicial
	// reduction is sound under this cost model.
	allowAlmostSimplicial() bool
	// pr2Adjacent reports whether PR2's adjacent case is sound under this
	// cost model.
	pr2Adjacent() bool
	// setCostCap tells the model that step costs of cap or above are
	// equivalent (they will be pruned), letting the ghw model bound its
	// per-bag exact set-cover searches. No-op for the treewidth model.
	setCostCap(cap int)
	// cacheStats reports the cover engine's cache counters (zeros for the
	// treewidth model).
	cacheStats() setcover.CacheStats
	// setRecorder attaches the run's recorder to the model's cover engine
	// for sampled cover_cache events, with the budget's start as the engine
	// clock base so their t_ns shares the trace's time base. No-op for the
	// treewidth model.
	setRecorder(rec obs.Recorder, start time.Time)
	// size reports the instance dimensions (vertices, edges or hyperedges).
	size() (n, m int)
}

// twModel is the treewidth cost model (thesis Chapters 4–5).
type twModel struct {
	e   *elimgraph.ElimGraph
	g   *hypergraph.Graph
	rng *rand.Rand
}

func newTWModel(g *hypergraph.Graph, seed int64) *twModel {
	return &twModel{e: elimgraph.New(g), g: g, rng: rand.New(rand.NewSource(seed))}
}

func (m *twModel) graph() *elimgraph.ElimGraph { return m.e }
func (m *twModel) stepCost(v int) int          { return m.e.Degree(v) }
func (m *twModel) remainderLB() int            { return bounds.MinorMinWidthElim(m.e, m.rng) }
func (m *twModel) completionCap() int {
	if m.e.Live() == 0 {
		return 0
	}
	return m.e.Live() - 1
}
func (m *twModel) initial() (int, int, []int) {
	lb := bounds.TreewidthLowerBound(m.g, m.rng)
	order := elim.MinFillOrdering(m.g, m.rng)
	ub := elim.WidthOfGraph(m.g, order)
	return lb, ub, order
}
func (m *twModel) allowAlmostSimplicial() bool         { return true }
func (m *twModel) pr2Adjacent() bool                   { return true }
func (m *twModel) setCostCap(int)                      {}
func (m *twModel) cacheStats() setcover.CacheStats     { return setcover.CacheStats{} }
func (m *twModel) setRecorder(obs.Recorder, time.Time) {}
func (m *twModel) size() (int, int)                    { return m.g.N(), m.g.M() }

// ghwModel is the generalized-hypertree-width cost model (Chapters 8–9).
type ghwModel struct {
	h        *hypergraph.Hypergraph
	ev       *elim.GHWEvaluator
	rng      *rand.Rand
	maxArity int
}

// newGHWModel builds a ghw model on a cover engine. The parallel search
// gives every worker its own model (the elimination graph and evaluator
// scratch are single-goroutine state) but one shared engine, so a bag
// solved by any worker is a memo hit for all of them. b bounds the exact
// cover searches: one the budget cuts prices the bag at the cost cap, and
// the search stops on that budget anyway.
func newGHWModel(eng *setcover.Engine, seed int64, b *budget.B) *ghwModel {
	rng := rand.New(rand.NewSource(seed))
	h := eng.Hypergraph()
	ev := elim.NewGHWEvaluatorWithEngine(eng, true, rng)
	ev.Budget = b
	return &ghwModel{
		h:        h,
		ev:       ev,
		rng:      rng,
		maxArity: h.MaxArity(),
	}
}

func (m *ghwModel) graph() *elimgraph.ElimGraph { return m.ev.E }

// stepCost polls the budget before every bag cover, not only on the
// budget's 256-tick cadence: a ghw child evaluation (a cover through the
// engine plus the tw-ksc remainder bound) costs ~10 µs, so 256 ticks are
// ~2.5 ms, while a poll (time.Now and, once per millisecond, the checkpoint
// observers) costs ~0.1 µs. A stopped budget prices the child at the cap,
// which prunes it; the search then stops at its next Tick. Tick accounting
// is unchanged.
func (m *ghwModel) stepCost(v int) int {
	if !m.ev.Budget.Check() {
		return m.ev.Cap
	}
	return m.ev.BagCost(v)
}

func (m *ghwModel) remainderLB() int {
	return bounds.TwKscWidthFrom(bounds.MinorMinWidthElim(m.ev.E, m.rng), m.maxArity)
}
func (m *ghwModel) completionCap() int { return m.ev.E.Live() }
func (m *ghwModel) initial() (int, int, []int) {
	lb := bounds.TwKscWidthFrom(bounds.MinorMinWidthElim(m.ev.E, m.rng), m.maxArity)
	order := elim.MinFillOrdering(m.h.PrimalGraph(), m.rng)
	// Greedy covers for the priming bound: always cheap, still an upper
	// bound; the search's exact covers are capped by it from then on. The
	// priming evaluator shares the search's cover engine, so its bags seed
	// the memo cache the search then hits.
	ub := elim.NewGHWEvaluatorWithEngine(m.ev.Engine(), false, m.rng).Width(order)
	return lb, ub, order
}
func (m *ghwModel) allowAlmostSimplicial() bool     { return false }
func (m *ghwModel) pr2Adjacent() bool               { return false }
func (m *ghwModel) setCostCap(cap int)              { m.ev.Cap = cap }
func (m *ghwModel) cacheStats() setcover.CacheStats { return m.ev.CoverCacheStats() }
func (m *ghwModel) setRecorder(rec obs.Recorder, start time.Time) {
	m.ev.Engine().SetRecorderAt(rec, 0, start)
}
func (m *ghwModel) size() (int, int) { return m.h.N(), m.h.M() }

// pr2Skip reports whether child v of the current state can be pruned by
// pruning rule 2, given that `last` was eliminated immediately before and
// was not a forced reduction. The rule keeps one canonical order of every
// swappable consecutive pair (the order eliminating the larger-indexed
// vertex first).
func pr2Skip(m model, v int) bool {
	e := m.graph()
	if e.Depth() == 0 {
		return false
	}
	last, clique, fills := e.LastStep()
	if v >= last {
		return false
	}
	adjacent := false
	for _, u := range clique {
		if u == v {
			adjacent = true
			break
		}
	}
	if !adjacent {
		// Non-adjacent consecutive eliminations commute exactly.
		return true
	}
	if !m.pr2Adjacent() {
		return false
	}
	// Adjacent case (thesis PR2): both orders have equal width when each of
	// last and v has a still-live neighbor (before either elimination) that
	// is not a neighbor of the other. Reconstruct N_before(v): current
	// neighbors of v minus fill edges incident to v from last's elimination,
	// plus last itself.
	nvBefore := make(map[int]struct{})
	var buf []int
	for _, u := range e.Neighbors(v, buf) {
		nvBefore[u] = struct{}{}
	}
	for _, f := range fills {
		if f[0] == v {
			delete(nvBefore, f[1])
		} else if f[1] == v {
			delete(nvBefore, f[0])
		}
	}
	nvBefore[last] = struct{}{}
	nLast := make(map[int]struct{}, len(clique))
	for _, u := range clique {
		nLast[u] = struct{}{}
	}
	condA := false
	for u := range nLast {
		if u == v {
			continue
		}
		if _, ok := nvBefore[u]; !ok {
			condA = true
			break
		}
	}
	if !condA {
		return false
	}
	for u := range nvBefore {
		if u == last {
			continue
		}
		if _, ok := nLast[u]; !ok {
			return true
		}
	}
	return false
}

// completion returns prefix extended by all remaining live vertices (in
// index order) — a full ordering whose width is bounded by
// max(g, completionCap) per PR1.
func completion(e *elimgraph.ElimGraph, prefix []int) []int {
	out := append([]int(nil), prefix...)
	for v := 0; v < e.N(); v++ {
		if !e.Eliminated(v) {
			out = append(out, v)
		}
	}
	return out
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max3(a, b, c int) int { return max2(max2(a, b), c) }
