// Portfolio mode: no single decomposition algorithm dominates across
// instance families, so instead of picking one blind, AlgPortfolio races a
// complementary set of ghw solvers concurrently. The default race is the
// greedy baseline, which answers at once, against exact branch and bound,
// which narrows it: the two members that win on the benchmark registry,
// one goroutine each, so a race fits the two cores it is measured on.
//
// All members share one budget (a deadline or cancellation stops the whole
// race), one cover engine (a bag solved by any member is a memo hit for all
// of them) and one cross-solver incumbent: every member improvement is
// published through a CAS-lowered atomic width, so the branch-and-bound
// member prunes against the best-so-far of every other member. The
// portfolio also tracks the best proven ghw lower bound (the upfront
// tw-ksc-width bound plus every member's lower_bound events); the moment
// the incumbent meets it, the result is proven optimal and the losing
// members are aborted via budget.StopPortfolioWin.
//
// Observability: each member runs under its own `algo` label (stamped on
// every event, so a request's trace interleaves cleanly — ValidateTrace
// scopes the anytime-width contract per (req, algo) pair), while the
// portfolio itself emits a merged timeline under the "portfolio" label into
// the run's RunStats.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hypertree/internal/bounds"
	"hypertree/internal/budget"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/obs/attr"
	"hypertree/internal/search"
	"hypertree/internal/setcover"
)

// DefaultPortfolio is the member set AlgPortfolio races when
// Options.Portfolio is empty: the greedy baseline for an instant upper
// bound and exact branch and bound to narrow it. The genetic heuristics
// never won a registry or serving race against these two, so they race
// only when named in Options.Portfolio.
var DefaultPortfolio = []Algorithm{AlgGreedy, AlgBBGHW}

// unsetW mirrors search.Incumbent's "no claim yet" sentinel.
const unsetW = math.MaxInt32

// DecomposePortfolio runs the algorithm portfolio on h; it is Decompose with
// Options.Algorithm forced to AlgPortfolio.
func DecomposePortfolio(h *hypergraph.Hypergraph, opts Options) (*Decomposition, error) {
	opts.Algorithm = AlgPortfolio
	return Decompose(h, opts)
}

// portfolio is the race's shared coordination state.
type portfolio struct {
	b   *budget.B
	inc *search.Incumbent
	// rec is the portfolio-level recorder: the merged RunStats teed with the
	// caller's recorder. Member events do NOT flow through it (a member's
	// algo_stop would overwrite the merged FinalWidth); they reach the
	// caller's recorder directly, label-stamped, via memberRecorder.
	rec   obs.Recorder
	stats *obs.RunStats
	// col accumulates the contribution side of the attribution ledger:
	// per-member claims, lower bounds, checkpoints and stop reasons, fed by
	// the memberRecorders while members run.
	col *attr.Collector

	mu       sync.Mutex
	bestW    int // lowest width any member has realized (unsetW before the first claim)
	bestAlgo Algorithm
	lb       int  // best proven ghw lower bound
	won      bool // the win latch: bestW <= lb, losers aborted
}

// claimWidth publishes a member-realized width: it lowers the cross-solver
// incumbent (tightening every member's pruning), extends the merged anytime
// timeline when the width is a global improvement, and latches the win when
// the incumbent meets the proven lower bound.
func (pf *portfolio) claimWidth(alg Algorithm, w int) {
	if w < 0 {
		return
	}
	pf.inc.Claim(w)
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if w < pf.bestW {
		pf.bestW, pf.bestAlgo = w, alg
		t := pf.b.Elapsed()
		// Under the same lock that decided the claim, so the ledger's claim
		// order is the true incumbent order and every improvement of the
		// merged timeline names exactly one member.
		pf.col.Claim(string(alg), w, t)
		pf.rec.Record(obs.Event{Kind: obs.KindImprove, T: t,
			Algo: string(AlgPortfolio), Width: w, Nodes: pf.b.Nodes()})
	}
	pf.checkWinLocked()
}

// raiseLB publishes a proven ghw lower bound.
func (pf *portfolio) raiseLB(lb int) {
	if lb <= 0 {
		return
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if lb > pf.lb {
		pf.lb = lb
		pf.rec.Record(obs.Event{Kind: obs.KindLowerBound, T: pf.b.Elapsed(),
			Algo: string(AlgPortfolio), LowerBound: lb, Nodes: pf.b.Nodes()})
	}
	pf.checkWinLocked()
}

func (pf *portfolio) checkWinLocked() {
	if !pf.won && pf.bestW <= pf.lb {
		pf.won = true
		pf.b.Stop(budget.StopPortfolioWin)
	}
}

func (pf *portfolio) lowerBound() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.lb
}

// memberRecorder is the recorder handed to each member: it stamps every
// event with the member's algo label (concurrent members must not rely on
// the validator's algo_start fallback), forwards to the caller's recorder,
// and intercepts the events that feed the shared race state — improvements
// claim the incumbent, and lower bounds and proven-exact completions raise
// the global ghw lower bound.
type memberRecorder struct {
	algo Algorithm
	pf   *portfolio
	next obs.Recorder // the caller's recorder; may be nil
}

func (m memberRecorder) Record(e obs.Event) {
	if e.Algo == "" {
		e.Algo = string(m.algo)
	}
	m.pf.col.Observe(string(m.algo), e)
	switch e.Kind {
	case obs.KindImprove:
		m.pf.claimWidth(m.algo, e.Width)
	case obs.KindLowerBound:
		m.pf.raiseLB(e.LowerBound)
	case obs.KindStop:
		if e.Exact {
			// A completed exact member proves its width optimal.
			m.pf.claimWidth(m.algo, e.Width)
			m.pf.raiseLB(e.Width)
		}
	}
	if m.next != nil {
		m.next.Record(e)
	}
}

type memberResult struct {
	alg Algorithm
	d   *Decomposition
	err error
	// wall is the member goroutine's wall-clock: the ledger's CPU-time
	// estimate (members solve on one goroutine each — inner Workers are 0).
	wall time.Duration
}

// decomposePortfolio is the AlgPortfolio entry point, dispatched from
// Decompose before the generic budget tail (a portfolio win stops the shared
// budget on purpose; the tail would misread that as an interruption).
func decomposePortfolio(h *hypergraph.Hypergraph, opts Options) (*Decomposition, error) {
	members := opts.Portfolio
	if len(members) == 0 {
		members = DefaultPortfolio
	}
	seen := make(map[Algorithm]bool, len(members))
	for _, a := range members {
		if _, err := ParseAlgorithm(string(a)); err != nil {
			return nil, fmt.Errorf("core: portfolio member: %w", err)
		}
		if a == AlgPortfolio {
			return nil, fmt.Errorf("core: portfolio cannot nest itself as a member")
		}
		if a.IsTreewidth() {
			return nil, fmt.Errorf("core: portfolio member %s optimizes treewidth, not ghw", a)
		}
		if a == AlgHW {
			// det-k-decomp decides hw ≤ k, not ghw ≤ k: its refutations and
			// its exact verdict bound hypertree width, so they cannot end a
			// ghw race, and a width it finds wins only when hw = ghw.
			return nil, fmt.Errorf("core: portfolio member %s decides hypertree width, not ghw", a)
		}
		if seen[a] {
			// Two members under one label would interleave their improve
			// events within one (req, algo) trace scope, breaking the
			// anytime-monotonicity contract ValidateTrace checks.
			return nil, fmt.Errorf("core: duplicate portfolio member %s", a)
		}
		seen[a] = true
	}

	rc := race(h, opts, members)
	b, pf, results := rc.b, rc.pf, rc.results

	var firstErr error
	for _, r := range results {
		if r.err == nil {
			continue
		}
		var pe *budget.PanicError
		if errors.As(r.err, &pe) {
			// A member panic fails the whole run, results or not: the
			// containment contract turns one exploding solver into a
			// diagnosable error, never a silently degraded answer.
			return nil, pe
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: portfolio member %s: %w", r.alg, r.err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	won, err := pickWinner(h, results)
	if err != nil {
		return nil, err
	}
	winner, winnerAlg := won.d, won.alg

	lbFinal := pf.lowerBound()
	reason := b.Reason()
	if reason == budget.StopPortfolioWin {
		reason = budget.StopNone
	}
	exact := winner.Width <= lbFinal
	if exact {
		// The proof stands whichever limit latched first: the winner realizes
		// the proven lower bound, so the race completed in every sense that
		// matters to the caller.
		reason = budget.StopNone
	}
	var evals int64
	for _, r := range results {
		if r.d != nil {
			evals += r.d.Evaluations
			if st := r.d.Stats; st != nil {
				st := st.Snapshot()
				pf.stats.AddPostStop(st.PostStopEliminations, st.PostStopCovers)
			}
		}
	}
	// All members have joined, so the global counter is final: read it once
	// and use it for both the result and the ledger, keeping the
	// conservation check (member views sum to TotalNodes) exact.
	total := b.Nodes()
	led := &attr.Ledger{Portfolio: true, Winner: string(winnerAlg), TotalNodes: total}
	for i, alg := range members {
		m := pf.col.Member(string(alg))
		m.Nodes = rc.children[i].Nodes()
		m.CPU = results[i].wall
		st := rc.engines[i].CacheStats()
		m.CacheHits, m.CacheMisses = st.Hits, st.Misses
		m.Role = attr.Role(alg == winnerAlg, m.Stop)
		led.Members = append(led.Members, m)
	}
	d := &Decomposition{
		TD:          winner.TD,
		GHD:         winner.GHD,
		Width:       winner.Width,
		LowerBound:  lbFinal,
		Exact:       exact,
		Ordering:    winner.Ordering,
		Nodes:       total,
		Evaluations: evals,
		Elapsed:     b.Elapsed(),
		Stop:        reason,
		Interrupted: reason != budget.StopNone,
		Stats:       pf.stats,
		Ledger:      led,
	}
	if st := rc.eng.CacheStats(); st.Hits+st.Misses > 0 {
		pf.rec.Record(obs.Event{Kind: obs.KindCoverCache, T: b.Elapsed(),
			Algo: string(AlgPortfolio), CacheHits: st.Hits, CacheMisses: st.Misses,
			CacheEvictions: st.Evictions, CacheSize: st.Size})
	}
	pf.rec.Record(obs.Event{Kind: obs.KindStop, T: b.Elapsed(),
		Algo: string(AlgPortfolio), Width: d.Width, LowerBound: d.LowerBound,
		Exact: d.Exact, Nodes: d.Nodes, Evaluations: evals, Stop: string(reason)})
	// The terminal attr events: one per member, after the portfolio's
	// algo_stop, each carrying that member's ledger row into the trace.
	for _, ev := range led.Events(b.Elapsed()) {
		pf.rec.Record(ev)
	}
	return d, nil
}

// raceRun is a finished race: its budget and shared state, each member's
// budget and cover-engine views, and each member's result.
type raceRun struct {
	b        *budget.B
	pf       *portfolio
	eng      *setcover.Engine
	children []*budget.B
	engines  []*setcover.Engine
	results  []memberResult
}

// race runs the members concurrently on one budget, one cover engine and
// one incumbent, and returns once every member has joined.
func race(h *hypergraph.Hypergraph, opts Options, members []Algorithm) *raceRun {
	b := budget.New(opts.Ctx, budget.Limits{
		Timeout:    opts.Timeout,
		MaxNodes:   opts.MaxNodes,
		CheckEvery: opts.CheckEvery,
	})
	eng := setcover.NewEngine(h, setcover.DefaultCacheCapacity)
	inc := search.NewIncumbent()
	stats := obs.NewRunStats()
	pf := &portfolio{b: b, inc: inc, stats: stats,
		rec: obs.Tee(stats, opts.Recorder), col: attr.NewCollector(),
		bestW: unsetW, bestAlgo: AlgPortfolio}
	// One recorder attach before fan-out: the engine's fields are
	// unsynchronized, so the members must not touch them (they don't — an
	// injected engine suppresses their SetRecorder calls).
	eng.SetRecorderAt(obs.WithAlgo(pf.rec, string(AlgPortfolio)), 0, b.StartTime())

	pf.rec.Record(obs.Event{Kind: obs.KindStart, T: b.Elapsed(),
		Algo: string(AlgPortfolio), N: h.N(), M: h.M()})
	b.OnCheckpoint(obs.Checkpointer(obs.WithAlgo(pf.rec, string(AlgPortfolio))))
	// The cheap ghw lower bound up front: a heuristic member that hits it
	// ends the race without waiting for an exact member's proof.
	pf.raiseLB(bounds.TwKscWidth(h, rand.New(rand.NewSource(opts.Seed))))

	// Per-member attribution instruments: a budget member view (its Ticks
	// count against the shared budget AND the member's own ledger row — the
	// conservation invariant: the views' node counts sum exactly to
	// b.Nodes()) and a cover-engine member view (shared memo cache, hits and
	// misses attributed to the member that queried).
	children := make([]*budget.B, len(members))
	engines := make([]*setcover.Engine, len(members))
	results := make([]memberResult, len(members))
	var wg sync.WaitGroup
	for i, alg := range members {
		i, alg := i, alg
		children[i] = b.Member()
		engines[i] = eng.Member()
		mrec := memberRecorder{algo: alg, pf: pf, next: opts.Recorder}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			var d *Decomposition
			err := budget.Guard(b, func() error {
				mopts := opts
				mopts.Algorithm = alg
				mopts.Recorder = mrec
				// The portfolio's parallelism is the race itself; members
				// stay on their serial engines so the race runs one goroutine
				// per member and the shared budget's work units split across
				// solvers, not within one.
				mopts.Workers = 0
				mopts.Portfolio = nil
				mopts.engine = engines[i]
				mopts.shared = inc
				var e error
				d, e = decompose(h, mopts, children[i])
				return e
			})
			results[i] = memberResult{alg: alg, d: d, err: err, wall: time.Since(start)}
		}()
	}
	wg.Wait()
	return &raceRun{b: b, pf: pf, eng: eng, children: children, engines: engines, results: results}
}

// pickWinner chooses the race's answer: the narrowest member result whose
// GHD validates against h, member order breaking ties. Each GHD is built
// on its tree decomposition's own tree and bags (exitGHD), so one
// GHD.Validate checks everything the result exposes. Only the narrowest
// candidate is checked, and the next one only if it fails. Members without
// a decomposition (no ordering of their own) are not candidates.
func pickWinner(h *hypergraph.Hypergraph, results []memberResult) (memberResult, error) {
	var cands []memberResult
	for _, r := range results {
		if r.d != nil && r.d.TD != nil && r.d.GHD != nil {
			cands = append(cands, r)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].d.Width < cands[j].d.Width })
	for _, r := range cands {
		if r.d.GHD.Validate(h) == nil {
			return r, nil
		}
	}
	return memberResult{}, fmt.Errorf("core: portfolio produced no valid decomposition")
}
