package search

import (
	"sort"

	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/reduce"
	"hypertree/internal/setcover"
)

// BBTreewidth runs the branch-and-bound treewidth search (the thesis's
// review of BB-tw / QuickBB, §4.4, with PR1, PR2, reductions and per-node
// minor-min-width bounds). The result is exact unless a budget was hit.
func BBTreewidth(g *hypergraph.Graph, opts Options) Result {
	if opts.Workers > 1 {
		return runBBParallel(opts, "bb-tw", func() model { return newTWModel(g, opts.Seed) })
	}
	return runBB(newTWModel(g, opts.Seed), opts, "bb-tw")
}

// BBGHW runs BB-ghw (thesis Chapter 8, Figure 8.3): branch and bound over
// elimination orderings for generalized hypertree width, with exact set
// covers for bag costs, the tw-ksc-width lower bound at interior nodes,
// simplicial reductions and the non-adjacent case of PR2.
func BBGHW(h *hypergraph.Hypergraph, opts Options) Result {
	return bbGHW(h, opts, "bb-ghw", true)
}

// bbGHW runs the ghw branch and bound, serial or parallel, on one cover
// engine (Options.Engine, or a fresh one for h) shared by every worker.
func bbGHW(h *hypergraph.Hypergraph, opts Options, label string, exactCovers bool) Result {
	opts.Budget = opts.budgetFor()
	eng := opts.Engine
	if eng == nil {
		eng = setcover.NewEngine(h, setcover.DefaultCacheCapacity)
	}
	newModel := func() model { return newGHWModel(eng, opts.Seed, exactCovers, opts.Budget) }
	if opts.Workers > 1 {
		return runBBParallel(opts, label, newModel)
	}
	return runBB(newModel(), opts, label)
}

type bbSearch struct {
	m      model
	opts   Options
	budget *budget.B
	rec    obs.Recorder
	shape  *gauges
	ub     int
	lbRoot int
	best   []int
	// bestW is the width realized by best (unsetWidth while best is nil).
	// It can lag behind ub when a cross-solver incumbent lowered the bound
	// past anything this search materialized itself; the result then reports
	// a nil Ordering rather than a stale, wider one.
	bestW  int
	prefix []int
	// shared is the parallel run's coordination state; nil in serial runs,
	// where ub above is the sole incumbent.
	shared *bbShared
	// ext is the cross-solver incumbent of a portfolio race (Options.Shared);
	// nil outside one. Serial runs re-read it at every sync point — the bound
	// only ever decreases, so anything pruned against an intermediate value
	// would also be pruned against the final one, keeping exactness sound.
	// Parallel runs adopt it at start only: their exactness argument is tied
	// to the shared in-run incumbent, which external claims bypass.
	ext *Incumbent
	// worker is the 1-based parallel worker id stamped on improve events;
	// 0 for serial runs and the parallel coordinator.
	worker int
	// seedLimit, when positive, makes dfs stop recursing at that prefix depth
	// and append the surviving frontier nodes to seedOut as tasks instead.
	// The parallel engine uses it to carve the root into disjoint subtree
	// tasks with the same pruning the serial search applies.
	seedLimit int
	seedOut   []bbTask
}

// improve records a best-width improvement event.
func (s *bbSearch) improve(w int) {
	s.rec.Record(obs.Event{Kind: obs.KindImprove, T: s.budget.Elapsed(),
		Width: w, Nodes: s.budget.Nodes(), WorkerID: s.worker})
}

// claimImprove tries to install w as the new incumbent width and reports
// whether it won. Serial runs compare against the local bound; parallel runs
// CAS the shared atomic bound, refreshing the local copy when another worker
// got there first.
func (s *bbSearch) claimImprove(w int) bool {
	if s.shared == nil {
		if w >= s.ub {
			return false
		}
		s.ub = w
		s.bestW = w
		return true
	}
	for {
		cur := s.shared.ub.Load()
		if int64(w) >= cur {
			if int(cur) < s.ub {
				s.ub = int(cur)
			}
			return false
		}
		if s.shared.ub.CompareAndSwap(cur, int64(w)) {
			s.ub = w
			s.bestW = w
			return true
		}
	}
}

// publishBest stores s.best as the shared incumbent ordering if w still
// beats it (another worker may have improved past w since the claim).
func (s *bbSearch) publishBest(w int) {
	if s.shared == nil {
		return
	}
	sh := s.shared
	sh.mu.Lock()
	if w < sh.bestW {
		sh.bestW = w
		sh.best = s.best
	}
	sh.mu.Unlock()
}

// syncUB refreshes the local pruning bound from the shared incumbent. A
// stale local bound only weakens pruning, never correctness, so one relaxed
// atomic load per call is enough.
func (s *bbSearch) syncUB() {
	if s.shared != nil {
		if u := int(s.shared.ub.Load()); u < s.ub {
			s.ub = u
		}
		return
	}
	if u := s.ext.Best(); u < s.ub {
		s.ub = u
	}
}

func runBB(m model, opts Options, defaultLabel string) Result {
	b := opts.budgetFor()
	shape := &gauges{}
	stats, rec, label := instrument(m, opts, b, defaultLabel, shape)
	lb, ub, ordering := m.initial()
	if opts.InitialUB > 0 && opts.InitialUB < ub {
		ub = opts.InitialUB
		ordering = nil
	}
	if u := opts.Shared.Best(); u < ub {
		ub = u
		ordering = nil
	}
	s := &bbSearch{m: m, opts: opts, budget: b, rec: rec, shape: shape,
		ub: ub, lbRoot: lb, best: ordering, ext: opts.Shared}
	s.bestW = unsetWidth
	if ordering != nil {
		s.bestW = ub
	}
	s.improve(ub)
	rec.Record(obs.Event{Kind: obs.KindLowerBound, T: b.Elapsed(), LowerBound: lb, Nodes: b.Nodes()})
	if lb < ub && m.graph().N() > 0 {
		s.dfs(0, lb, false)
	}
	exact := !b.Stopped()
	lbOut := s.lbRoot
	if exact {
		lbOut = s.ub
		rec.Record(obs.Event{Kind: obs.KindLowerBound, T: b.Elapsed(), LowerBound: lbOut, Nodes: b.Nodes()})
	}
	best := s.best
	if s.bestW > s.ub {
		// The final bound came from the cross-solver incumbent (or the
		// priming InitialUB), not from an ordering realized here.
		best = nil
	}
	r := finish(m, Result{
		Width:      s.ub,
		LowerBound: lbOut,
		Exact:      exact,
		Ordering:   best,
		Nodes:      b.Nodes(),
		Elapsed:    b.Elapsed(),
		Stop:       b.Reason(),
	})
	if cs := m.cacheStats(); cs.Hits+cs.Misses > 0 {
		rec.Record(obs.Event{Kind: obs.KindCoverCache, T: b.Elapsed(),
			CacheHits: cs.Hits, CacheMisses: cs.Misses,
			CacheEvictions: cs.Evictions, CacheSize: cs.Size})
	}
	rec.Record(obs.Event{Kind: obs.KindStop, T: b.Elapsed(), Algo: label,
		Width: r.Width, LowerBound: r.LowerBound, Exact: r.Exact,
		Nodes: r.Nodes, Backtracks: shape.backtracks.Load(), Stop: string(r.Stop)})
	r.Stats = stats
	return r
}

// dfs explores the subtree below the current elimination prefix.
// g is the cost of the prefix, f the best lower bound along the path, and
// lastReduced tells whether the previous elimination was a forced reduction
// (suppressing PR2 for this node's children, per thesis Figure 5.1).
func (s *bbSearch) dfs(g, f int, lastReduced bool) {
	if !s.budget.Tick() {
		return
	}
	s.syncUB()
	s.shape.depth.Store(int64(len(s.prefix)))
	// Every dfs return is one exhausted subtree — the backtrack gauge the
	// checkpoint events carry.
	defer s.shape.backtracks.Add(1)
	faultinject.Hit(faultinject.SiteSearchExpand)
	e := s.m.graph()
	// PR1 (thesis §4.4.5): completing in any order costs at most
	// max(g, completionCap); harvest it as an upper bound, and stop if the
	// subtree cannot do better.
	cap := s.m.completionCap()
	if w := max2(g, cap); w < s.ub && s.claimImprove(w) {
		s.best = completion(e, s.prefix)
		s.publishBest(w)
		s.improve(w)
	}
	if cap <= g {
		return
	}
	// Children: a forced reduction vertex, or all live vertices.
	var children []int
	reduced := false
	if !s.opts.DisableReductions {
		if r := reduce.FindReduction(e, s.lbRoot, s.m.allowAlmostSimplicial()); r >= 0 {
			children = []int{r}
			reduced = true
		}
	}
	if children == nil {
		children = e.LiveVertices(nil)
	}
	// Order children by step cost so cheap eliminations are tried first.
	// Costs at or above the current upper bound are all equivalent (pruned),
	// which lets the ghw model cap its exact set-cover searches.
	s.m.setCostCap(s.ub)
	type childCost struct{ v, cost int }
	cc := make([]childCost, len(children))
	for i, v := range children {
		cc[i] = childCost{v, s.m.stepCost(v)}
	}
	sort.SliceStable(cc, func(i, j int) bool { return cc[i].cost < cc[j].cost })

	for _, c := range cc {
		// Each evaluated child counts against the node budget: child
		// evaluation (step cost + remainder lower bound) dominates the work.
		if !s.budget.Tick() {
			return
		}
		s.syncUB()
		v, cost := c.v, c.cost
		if !reduced && !lastReduced && !s.opts.DisablePR2 && pr2Skip(s.m, v) {
			continue
		}
		g2 := max2(g, cost)
		if g2 >= s.ub {
			continue
		}
		e.Eliminate(v)
		s.prefix = append(s.prefix, v)
		h := 0
		if !s.opts.DisableNodeLB {
			h = s.m.remainderLB()
		}
		f2 := max3(g2, h, f)
		if f2 < s.ub {
			if s.seedLimit > 0 && len(s.prefix) >= s.seedLimit {
				s.seedOut = append(s.seedOut, bbTask{
					prefix:  append([]int(nil), s.prefix...),
					g:       g2,
					f:       f2,
					reduced: reduced,
				})
			} else {
				s.dfs(g2, f2, reduced)
			}
		}
		s.prefix = s.prefix[:len(s.prefix)-1]
		e.Restore()
	}
}
