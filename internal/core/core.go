// Package core is the library façade: a single entry point that runs any of
// the thesis's algorithms on a hypergraph (or graph) and returns a
// validated decomposition together with the bounds the run proved.
//
// The algorithms are:
//
//	astar-tw   A* for exact treewidth (thesis ch. 5)
//	bb-tw      branch and bound for exact treewidth (thesis §4.4)
//	ga-tw      genetic algorithm for treewidth upper bounds (ch. 6)
//	astar-ghw  A* for exact generalized hypertree width (ch. 9)
//	bb-ghw     branch and bound for exact ghw (ch. 8)
//	ga-ghw     genetic algorithm for ghw upper bounds (§7.1)
//	saiga-ghw  self-adaptive island GA for ghw upper bounds (§7.2)
//	greedy     min-fill ordering + greedy covers (McMahan's bucket
//	           elimination baseline, §2.5.2)
//	hw-detk    exact hypertree width via det-k-decomp — the tractable
//	           variant (polynomial for fixed k, §2.3.2)
package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hypertree/internal/bounds"
	"hypertree/internal/budget"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/ga"
	"hypertree/internal/htd"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/obs/attr"
	"hypertree/internal/search"
	"hypertree/internal/setcover"
)

// Algorithm names an implemented decomposition algorithm.
type Algorithm string

// The implemented algorithms.
const (
	AlgAStarTW  Algorithm = "astar-tw"
	AlgBBTW     Algorithm = "bb-tw"
	AlgGATW     Algorithm = "ga-tw"
	AlgAStarGHW Algorithm = "astar-ghw"
	AlgBBGHW    Algorithm = "bb-ghw"
	AlgGAGHW    Algorithm = "ga-ghw"
	AlgSAIGAGHW Algorithm = "saiga-ghw"
	AlgGreedy   Algorithm = "greedy"
	// AlgHW computes the hypertree width via det-k-decomp — the tractable
	// variant: polynomial for each fixed width (thesis §2.3.2). The result
	// is a valid GHD of width hw(H) >= ghw(H).
	AlgHW Algorithm = "hw-detk"
	// AlgPortfolio races a set of ghw solvers (greedy and bb-ghw by
	// default; see Options.Portfolio) concurrently on one shared budget and
	// one shared cover engine, publishing each improvement through a
	// cross-solver incumbent so every member prunes against the best width
	// any of them has found. It returns as soon as some member's width is
	// proven optimal, or the best validated anytime width at the deadline.
	AlgPortfolio Algorithm = "portfolio"
)

// Algorithms lists every algorithm name accepted by Decompose.
var Algorithms = []Algorithm{
	AlgAStarTW, AlgBBTW, AlgGATW,
	AlgAStarGHW, AlgBBGHW, AlgGAGHW, AlgSAIGAGHW, AlgGreedy, AlgHW,
	AlgPortfolio,
}

// ParseAlgorithm validates an algorithm name from the CLI.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("core: unknown algorithm %q (have %v)", s, Algorithms)
}

// IsTreewidth reports whether the algorithm optimizes treewidth (as opposed
// to generalized hypertree width).
func (a Algorithm) IsTreewidth() bool {
	return a == AlgAStarTW || a == AlgBBTW || a == AlgGATW
}

// Options configures Decompose.
type Options struct {
	Algorithm Algorithm
	// Ctx optionally cancels the run (e.g. on SIGINT); on cancellation
	// Decompose still returns a validated best-so-far decomposition with
	// Stop set to budget.StopCanceled.
	Ctx context.Context
	// Timeout bounds the run (exact algorithms degrade to anytime bounds).
	Timeout time.Duration
	// MaxNodes bounds work units: search-tree expansions for the exact
	// algorithms, fitness evaluations for the genetic ones.
	MaxNodes int64
	// CheckEvery overrides how many work units pass between context/deadline
	// checkpoints (default 256). Tests lower it so cancellation lands even
	// in very short runs.
	CheckEvery int64
	Seed       int64
	// GA configures ga-tw/ga-ghw; zero-valued fields fall back to scaled-
	// down thesis defaults.
	GA ga.Config
	// SAIGA configures saiga-ghw; zero-valued fields fall back to defaults.
	SAIGA ga.SAIGAConfig
	// Workers is the shared parallelism knob: it sets the worker count of
	// the branch-and-bound searches (work-stealing parallel BB) and — unless
	// GA.Workers was set explicitly — GA/SAIGA fitness evaluation. Values
	// <= 1 keep every algorithm on its bit-identical serial path. A* and
	// det-k-decomp (hw-detk) are serial and ignore the knob.
	Workers int
	// Recorder, when non-nil, receives the run's instrumentation events
	// (obs package): run start/stop, budget checkpoints, anytime width
	// improvements, cover-cache snapshots. Several algorithms record from
	// worker goroutines, so it must be safe for concurrent use. nil
	// disables tracing; the run still aggregates Decomposition.Stats.
	Recorder obs.Recorder
	// Portfolio selects the member solvers raced by AlgPortfolio; empty
	// means DefaultPortfolio (greedy, bb-ghw). Members must be distinct ghw
	// algorithms: treewidth algorithms optimize a different width, hw-detk
	// decides hypertree width, and a nested portfolio is rejected. ga-ghw
	// and saiga-ghw may race when named here.
	Portfolio []Algorithm

	// engine, when non-nil, injects a shared cover engine into the ghw
	// solvers (the portfolio driver shares one across its members). Internal:
	// the engine's recorder fields are unsynchronized, so only the fan-out
	// site may attach one.
	engine *setcover.Engine
	// shared, when non-nil, is the cross-solver incumbent of a portfolio
	// race, handed down to the search engines for pruning.
	shared *search.Incumbent
}

// ClampWorkers normalizes a caller-supplied worker count for Options.Workers:
// negative values (meaningless) clamp to 0 — the bit-identical serial path —
// and values above GOMAXPROCS clamp down to it, since the parallel engines
// only contend with themselves beyond that. Both the CLI and the daemon
// funnel user-supplied counts through here.
func ClampWorkers(n int) int {
	if n < 0 {
		return 0
	}
	if max := runtime.GOMAXPROCS(0); n > max {
		return max
	}
	return n
}

// Decomposition is the unified result: a validated decomposition plus the
// bounds and effort statistics of the run.
type Decomposition struct {
	// TD is the tree decomposition induced by Ordering, with every tree edge
	// between nested bags contracted (decomp.TreeDecomposition.Compact), so
	// it holds only the ordering's maximal bags; hw-detk's is its own
	// decomposition's tree.
	TD *decomp.TreeDecomposition
	// GHD is the covered decomposition, on TD's own tree and bags; nil for
	// the treewidth algorithms.
	GHD *decomp.GHD
	// Width is the achieved width (treewidth-style for tw algorithms,
	// λ-width for ghw algorithms).
	Width int
	// LowerBound is the best bound proved during the run (equals Width when
	// Exact; heuristic algorithms report the cheap tw-ksc / minor bound). For
	// the ghw algorithms, hw-detk included, it bounds ghw and never exceeds
	// Width.
	LowerBound int
	// Exact reports whether Width was proved optimal: by the algorithm, or
	// because Width meets LowerBound. For hw-detk a completed run is exact
	// hypertree width.
	Exact bool
	// Ordering is the elimination ordering realizing Width.
	Ordering []int
	// Nodes / Evaluations / Elapsed describe the effort spent; Elapsed
	// includes covering the returned decomposition.
	Nodes       int64
	Evaluations int64
	Elapsed     time.Duration
	// Interrupted reports that the run ended on a budget (deadline, node
	// budget, or cancellation) rather than by completing; the decomposition
	// is the validated best found so far. Stop says which limit tripped.
	Interrupted bool
	Stop        budget.StopReason
	// Stats aggregates the run's instrumentation events: the anytime-width
	// timeline, effort counters, cover-cache traffic. Always populated.
	Stats *obs.RunStats
	// Ledger is the run's per-member attribution record: one row per
	// portfolio member saying what it cost (attributed nodes, CPU estimate,
	// cache traffic) and what it contributed (incumbent claims, lower
	// bounds) plus its final role. Serial runs carry the degenerate
	// one-member ledger, so consumers handle one shape. Always populated.
	Ledger *attr.Ledger
}

// Decompose runs the selected algorithm on h. For the treewidth algorithms
// the hypergraph's primal graph is decomposed (Lemma 1) and GHD is nil; for
// the ghw algorithms a validated GHD is returned, its bags covered exactly
// while the budget lasts and never wider than the width the run scored.
// Under AlgPortfolio only members with an ordering of their own build a
// decomposition, and the narrowest is checked once (one GHD.Validate, which
// covers its tree decomposition) before it is returned.
//
// The run is governed by one shared budget built from Ctx, Timeout and
// MaxNodes. When any limit trips, the algorithm stops cooperatively and
// Decompose still returns a validated best-so-far decomposition, with
// Interrupted set and Stop naming the limit. A panic inside the algorithm
// is contained and returned as a *budget.PanicError — one exploding
// instance in a batch run stays a diagnosable error.
func Decompose(h *hypergraph.Hypergraph, opts Options) (*Decomposition, error) {
	if h.N() == 0 {
		return nil, fmt.Errorf("core: empty hypergraph")
	}
	if !h.CoversAllVertices() && !opts.Algorithm.IsTreewidth() {
		return nil, fmt.Errorf("core: hypergraph leaves vertices uncovered; ghw is undefined (add unary edges)")
	}
	if opts.Algorithm == AlgPortfolio {
		// The portfolio has its own completion semantics (a proven win stops
		// the shared budget on purpose), so it bypasses the tail below that
		// would misread that stop as an interruption.
		return decomposePortfolio(h, opts)
	}
	b := budget.New(opts.Ctx, budget.Limits{
		Timeout:    opts.Timeout,
		MaxNodes:   opts.MaxNodes,
		CheckEvery: opts.CheckEvery,
	})
	var d *Decomposition
	err := budget.Guard(b, func() error {
		var err error
		d, err = decompose(h, opts, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	d.Stop = b.Reason()
	if d.Width <= d.LowerBound {
		// The proof stands whichever limit latched first: the width meets
		// a proven lower bound, so the run completed in every sense that
		// matters to the caller (the portfolio applies the same rule).
		d.Stop = budget.StopNone
	}
	d.Interrupted = d.Stop != budget.StopNone
	d.Exact = d.Exact && !d.Interrupted
	// The degenerate one-member ledger of a serial run: same shape as a
	// portfolio ledger so every consumer (envelope, metrics, tracestat) has
	// one code path, with the sole member as the trivial winner.
	d.Ledger = serialLedger(string(opts.Algorithm), d, b)
	for _, ev := range d.Ledger.Events(b.Elapsed()) {
		recordPost(d, opts, ev)
	}
	return d, nil
}

// serialLedger builds the one-member attribution ledger of a non-portfolio
// run. The costs are the run's own totals (one member did everything, so
// conservation is trivial); the claims are the run's anytime timeline,
// deduplicated to strict improvements.
func serialLedger(algo string, d *Decomposition, b *budget.B) *attr.Ledger {
	m := attr.Member{
		Algo:       algo,
		Role:       attr.RoleWinner,
		Nodes:      b.Nodes(),
		CPU:        d.Elapsed,
		BestWidth:  d.Width,
		LowerBound: d.LowerBound,
		Stop:       string(d.Stop),
	}
	if d.Stats != nil {
		snap := d.Stats.Snapshot()
		m.CacheHits, m.CacheMisses = snap.CacheHits, snap.CacheMisses
		m.Checkpoints = snap.Checkpoints
		for _, p := range snap.Timeline {
			if len(m.Claims) == 0 || p.Width < m.Claims[len(m.Claims)-1].Width {
				m.Claims = append(m.Claims, attr.Claim{Width: p.Width, T: p.T})
			}
		}
	}
	return &attr.Ledger{
		Winner:     algo,
		TotalNodes: b.Nodes(),
		Members:    []attr.Member{m},
	}
}

// decompose dispatches to the selected algorithm under the shared budget b
// and post-processes the result into a validated decomposition.
func decompose(h *hypergraph.Hypergraph, opts Options, b *budget.B) (*Decomposition, error) {
	ghw := !opts.Algorithm.IsTreewidth()
	if ghw && opts.engine == nil {
		// The run's own cover engine: every ghw solver scores on it and the
		// exit covers the returned ordering through it. Its sampled
		// cover_cache events go to the caller's recorder on the budget's
		// clock; each solver's closing snapshot still lands in its RunStats.
		opts.engine = setcover.NewEngine(h, setcover.DefaultCacheCapacity)
		opts.engine.SetRecorderAt(opts.Recorder, 0, b.StartTime())
	}
	sopt := search.Options{Seed: opts.Seed, Budget: b, Recorder: opts.Recorder, Workers: opts.Workers,
		Engine: opts.engine, Shared: opts.shared}
	var d *Decomposition
	// pendingStop defers the algo_stop event of the core-level algorithms
	// (greedy, interrupted hw-detk) to after post-processing, so the event
	// reports the width the returned decomposition actually achieves.
	pendingStop := ""
	switch opts.Algorithm {
	case AlgAStarTW:
		d = fromSearch(search.AStarTreewidth(h.PrimalGraph(), sopt))
	case AlgBBTW:
		d = fromSearch(search.BBTreewidth(h.PrimalGraph(), sopt))
	case AlgGATW:
		cfg := gaDefaults(opts.GA, opts)
		cfg.Budget = b
		if cfg.Recorder == nil {
			cfg.Recorder = opts.Recorder
		}
		r := ga.TreewidthOfHypergraph(h, cfg)
		d = &Decomposition{
			Width:       r.BestWidth,
			LowerBound:  bounds.TreewidthLowerBound(h.PrimalGraph(), rand.New(rand.NewSource(opts.Seed))),
			Ordering:    r.BestOrdering,
			Evaluations: r.Evaluations,
			Elapsed:     r.Elapsed,
			Stats:       r.Stats,
		}
	case AlgAStarGHW:
		d = fromSearch(search.AStarGHW(h, sopt))
	case AlgBBGHW:
		d = fromSearch(search.BBGHW(h, sopt))
	case AlgGAGHW:
		cfg := gaDefaults(opts.GA, opts)
		cfg.Budget = b
		if cfg.Recorder == nil {
			cfg.Recorder = opts.Recorder
		}
		r := ga.GHW(h, cfg)
		d = &Decomposition{
			Width:       r.BestWidth,
			LowerBound:  bounds.TwKscWidth(h, rand.New(rand.NewSource(opts.Seed))),
			Ordering:    r.BestOrdering,
			Evaluations: r.Evaluations,
			Elapsed:     r.Elapsed,
			Stats:       r.Stats,
		}
	case AlgSAIGAGHW:
		cfg := saigaDefaults(opts.SAIGA, opts)
		cfg.Budget = b
		if cfg.Recorder == nil {
			cfg.Recorder = opts.Recorder
		}
		r := ga.SAIGAGHW(h, cfg)
		d = &Decomposition{
			Width:       r.BestWidth,
			LowerBound:  bounds.TwKscWidth(h, rand.New(rand.NewSource(opts.Seed))),
			Ordering:    r.BestOrdering,
			Evaluations: r.Evaluations,
			Elapsed:     r.Elapsed,
			Stats:       r.Stats,
		}
	case AlgGreedy:
		stats, rec := coreInstrument(opts, b, "greedy", h)
		rng := rand.New(rand.NewSource(opts.Seed))
		d = &Decomposition{Ordering: elim.MinFillOrderingBudget(h, rng, b), Stats: stats}
		// Greedy scores its ordering on the greedy GHD it hands off, so the
		// kept bags are covered greedily once; exit then tightens that GHD.
		if err := handOff(h, opts, b, d); err != nil {
			return nil, err
		}
		d.Width = d.GHD.Width()
		rec.Record(obs.Event{Kind: obs.KindImprove, T: b.Elapsed(), Width: d.Width, Nodes: b.Nodes()})
		d.LowerBound = bounds.TwKscWidth(h, rng)
		rec.Record(obs.Event{Kind: obs.KindLowerBound, T: b.Elapsed(), LowerBound: d.LowerBound, Nodes: b.Nodes()})
		pendingStop = "greedy"
	case AlgHW:
		stats, rec := coreInstrument(opts, b, "hw-detk", h)
		rng := rand.New(rand.NewSource(opts.Seed))
		// hw ≤ tw+1 always, and the greedy ghw bound caps the search too.
		maxK := bounds.MinFillUpperBound(h.PrimalGraph(), rng) + 1
		// The widths det-k-decomp refutes bound hw, not ghw: they stay in the
		// trace as lower_bound events but never reach LowerBound, which is
		// the ghw-sound tw-ksc bound on every path.
		w, g, _ := htd.HypertreeWidth(h, maxK, b, rec)
		lb := bounds.TwKscWidth(h, rng)
		if w >= 0 {
			d = &Decomposition{
				Width:      w,
				LowerBound: lb,
				Exact:      true, // exact hypertree width
				Nodes:      b.Nodes(),
				Elapsed:    b.Elapsed(),
				Stats:      stats,
			}
			// det-k-decomp builds the decomposition directly, not from an
			// ordering; attach it, derive the TD view from its bags, and
			// derive the elimination ordering the struct contract promises
			// from the rooted tree (Theorem 2 pipeline: the induced
			// decomposition of the derived ordering is no wider).
			d.GHD = g
			d.TD = &g.TreeDecomposition
			d.Ordering = decomp.OrderingFromDecomposition(h, d.TD)
			rec.Record(obs.Event{Kind: obs.KindStop, T: b.Elapsed(), Algo: "hw-detk",
				Width: w, LowerBound: lb, Exact: true, Nodes: b.Nodes()})
			return d, nil
		}
		if !b.Stopped() {
			return nil, fmt.Errorf("core: det-k-decomp found no decomposition up to width %d", maxK)
		}
		// Interrupted before any width was decided: degrade to a greedy GHD
		// via the nil-Ordering fallback below so the anytime contract holds.
		d = &Decomposition{
			LowerBound: lb,
			Nodes:      b.Nodes(),
			Stats:      stats,
		}
		pendingStop = "hw-detk"
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", opts.Algorithm)
	}

	// A portfolio member without an ordering of its own cannot win: its
	// width is another member's claim, and that member returns the
	// decomposition (its exit keeps a width within its claim). So it reports
	// width, bounds and stop and builds nothing. A serial run always returns
	// a decomposition.
	if d.Ordering != nil || opts.shared == nil {
		if err := exit(h, opts, b, d); err != nil {
			return nil, err
		}
	}
	// A width that meets a proven lower bound is optimal, however the run
	// ended (Decompose then reports it as completed).
	d.Exact = d.Exact || d.Width <= d.LowerBound
	d.Elapsed = b.Elapsed()
	if pendingStop != "" {
		recordPost(d, opts, obs.Event{Kind: obs.KindStop, T: b.Elapsed(), Algo: pendingStop,
			Width: d.Width, LowerBound: d.LowerBound, Exact: d.Exact,
			Nodes: b.Nodes(), Stop: string(b.Reason())})
	}
	return d, nil
}

// exit hands a run's result off as a decomposition (handOff, unless the
// run already did, as greedy does) and, for the ghw algorithms, tightens
// its GHD's covers (tighten). A run that never materialized an ordering
// falls back to min-fill, so a serial run always returns a decomposition.
func exit(h *hypergraph.Hypergraph, opts Options, b *budget.B, d *Decomposition) error {
	fellBack := d.Ordering == nil
	if fellBack {
		// Budgeted run that never materialized an ordering. The budget is
		// already stopped here, so min-fill degrades to a cheap index
		// ordering rather than spending more time.
		d.Ordering = elim.MinFillOrderingBudget(h, rand.New(rand.NewSource(opts.Seed)), b)
	}
	if d.TD == nil {
		if err := handOff(h, opts, b, d); err != nil {
			return err
		}
	}
	g := d.GHD
	if g == nil {
		return nil // a treewidth run: nothing to cover
	}
	claim := d.Width
	if fellBack {
		claim = 0 // never scored: greedy covers only
	}
	if late := tighten(opts.engine, g, claim, b); late > 0 && d.Stats != nil {
		d.Stats.AddPostStop(0, int64(late))
	}
	if g.Width() < d.Width {
		// Exact covers can beat the width the run scored.
		d.Width = g.Width()
		recordPost(d, opts, obs.Event{Kind: obs.KindImprove, T: b.Elapsed(),
			Width: d.Width, Nodes: b.Nodes()})
	} else if g.Width() > d.Width {
		// Only a fallback ordering lands here: report what the returned
		// decomposition actually achieves.
		d.Width = g.Width()
		d.Exact = false
	}
	return nil
}

// handOff builds a run's decomposition from d.Ordering: the tree
// decomposition of the ordering, compacted to its maximal bags, and, for
// the ghw algorithms, a GHD on that tree's own tree and bags (so the
// portfolio's one GHD.Validate of the winner checks both), each bag covered
// greedily through the run's cover engine with ties broken by a fresh
// rng(Seed). A bag nested in a neighbour's never sets the width (a minimum
// cover of a subset is no larger), yet would cost a cover here and a table
// and a semijoin in every plan compiled from the result, so no layer after
// this one sees it. The eliminations and covers done after the budget
// stopped are counted into the run's stats; the cover pass counts whole
// when it ends after the stop.
func handOff(h *hypergraph.Hypergraph, opts Options, b *budget.B, d *Decomposition) error {
	d.TD = elim.TDFromOrdering(h, d.Ordering).Compact()
	var elims, covers int
	if b.Stopped() {
		elims = len(d.Ordering)
	}
	if !opts.Algorithm.IsTreewidth() {
		g, err := decomp.FromTreeDecompositionWithEngine(opts.engine, d.TD, decomp.CoverGreedy, rand.New(rand.NewSource(opts.Seed)))
		if err != nil {
			return fmt.Errorf("core: covering decomposition: %w", err)
		}
		d.GHD = g
		if b.Stopped() {
			covers = len(g.Lambdas)
		}
	}
	if d.Stats != nil {
		d.Stats.AddPostStop(int64(elims), int64(covers))
	}
	return nil
}

// coreInstrument sets up instrumentation for the algorithms that run at the
// core level (greedy, hw-detk): a fresh RunStats teed with the caller's
// recorder, checkpoint piggybacking, and the algo_start event.
func coreInstrument(opts Options, b *budget.B, label string, h *hypergraph.Hypergraph) (*obs.RunStats, obs.Recorder) {
	stats := obs.NewRunStats()
	rec := obs.Tee(stats, opts.Recorder)
	b.OnCheckpoint(obs.Checkpointer(rec))
	rec.Record(obs.Event{Kind: obs.KindStart, T: b.Elapsed(), Algo: label, N: h.N(), M: h.M()})
	return stats, rec
}

// recordPost emits a post-processing event into the run's aggregator and the
// caller's recorder (the leaf algorithm's internal tee is out of reach here).
func recordPost(d *Decomposition, opts Options, ev obs.Event) {
	if d.Stats != nil {
		d.Stats.Record(ev)
	}
	if opts.Recorder != nil {
		opts.Recorder.Record(ev)
	}
}

func fromSearch(r search.Result) *Decomposition {
	return &Decomposition{
		Width:      r.Width,
		LowerBound: r.LowerBound,
		Exact:      r.Exact,
		Ordering:   r.Ordering,
		Nodes:      r.Nodes,
		Elapsed:    r.Elapsed,
		Stats:      r.Stats,
	}
}

// gaDefaults fills unset GA fields with scaled-down thesis defaults,
// field by field: a caller who sets only PopulationSize still gets working
// rates, tournament size and iteration count instead of a zero-valued
// config that panics inside ga.Run.
func gaDefaults(cfg ga.Config, opts Options) ga.Config {
	def := ga.ThesisDefaults()
	def.PopulationSize = 200
	def.MaxIterations = 200
	if cfg.PopulationSize == 0 {
		cfg.PopulationSize = def.PopulationSize
		// The zero-valued operators (PMX, DM) are legitimate choices a
		// caller may have made deliberately, so they only default when the
		// whole config looks untouched (no population size set).
		cfg.Crossover = def.Crossover
		cfg.Mutation = def.Mutation
	}
	if cfg.CrossoverRate == 0 {
		cfg.CrossoverRate = def.CrossoverRate
	}
	if cfg.MutationRate == 0 {
		cfg.MutationRate = def.MutationRate
	}
	if cfg.TournamentSize == 0 {
		cfg.TournamentSize = def.TournamentSize
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = def.MaxIterations
	}
	if cfg.Seed == 0 {
		cfg.Seed = opts.Seed
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = opts.Timeout
	}
	if cfg.Workers == 0 {
		cfg.Workers = opts.Workers
	}
	if cfg.Engine == nil {
		cfg.Engine = opts.engine
	}
	return cfg
}

// saigaDefaults fills unset SAIGA fields with defaults, field by field.
func saigaDefaults(cfg ga.SAIGAConfig, opts Options) ga.SAIGAConfig {
	def := ga.SAIGADefaults()
	if cfg.Islands == 0 {
		cfg.Islands = def.Islands
	}
	if cfg.IslandPop == 0 {
		cfg.IslandPop = def.IslandPop
	}
	if cfg.TournamentSize == 0 {
		cfg.TournamentSize = def.TournamentSize
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = def.Epochs
	}
	if cfg.EpochLength == 0 {
		cfg.EpochLength = def.EpochLength
	}
	if cfg.Seed == 0 {
		cfg.Seed = opts.Seed
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = opts.Timeout
	}
	if cfg.Workers == 0 {
		cfg.Workers = opts.Workers
	}
	if cfg.Engine == nil {
		cfg.Engine = opts.engine
	}
	return cfg
}
