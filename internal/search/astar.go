package search

import (
	"container/heap"
	"sort"
	"strconv"
	"strings"

	"hypertree/internal/budget/faultinject"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/reduce"
	"hypertree/internal/setcover"
)

// AStarTreewidth runs A*-tw (thesis Chapter 5, Figure 5.1): best-first
// search over elimination-ordering prefixes with f = max(g, h, f_parent),
// the treewidth elimination set / PR2 pruning and simplicial reductions.
// On budget exhaustion it returns the best proved lower bound (the maximum
// f-value expanded, thesis §5.3) with Exact=false.
func AStarTreewidth(g *hypergraph.Graph, opts Options) Result {
	return runAStar(newTWModel(g, opts.Seed), opts, "astar-tw")
}

// AStarGHW runs A*-ghw (thesis Chapter 9, Figure 9.1): the same best-first
// search under the generalized-hypertree-width cost model with exact set
// covers and the tw-ksc-width heuristic.
func AStarGHW(h *hypergraph.Hypergraph, opts Options) Result {
	opts.Budget = opts.budgetFor()
	eng := opts.Engine
	if eng == nil {
		eng = setcover.NewEngine(h, setcover.DefaultCacheCapacity)
	}
	return runAStar(newGHWModel(eng, opts.Seed, true, opts.Budget), opts, "astar-ghw")
}

// state is an A* search node. Prefixes are reconstructed by following
// parent pointers (thesis §5.2.2); children lists are not stored (§5.2.3 —
// they are regenerated at expansion, when the graph state is available).
type state struct {
	parent  *state
	vertex  int32 // vertex eliminated to reach this state; -1 at the root
	depth   int32
	g, f    int32
	reduced bool // this state's vertex was a forced reduction
}

func (s *state) prefix(buf []int) []int {
	buf = buf[:0]
	for t := s; t.parent != nil; t = t.parent {
		buf = append(buf, int(t.vertex))
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// pq orders states by ascending f, breaking ties by descending depth
// (thesis §5.3: deeper states first reach goals sooner).
type pq []*state

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	return q[i].depth > q[j].depth
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(*state)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// finish stamps the model's cover-cache counters onto a result.
func finish(m model, r Result) Result {
	s := m.cacheStats()
	r.CoverCacheHits, r.CoverCacheMisses = s.Hits, s.Misses
	return r
}

func runAStar(m model, opts Options, defaultLabel string) Result {
	b := opts.budgetFor()
	shape := &gauges{}
	stats, rec, label := instrument(m, opts, b, defaultLabel, shape)
	queue := &pq{}
	maxOpen := 0
	// ret finalizes any exit path: cover-cache snapshot, algo_stop event,
	// stats attachment.
	ret := func(r Result) Result {
		r = finish(m, r)
		if s := m.cacheStats(); s.Hits+s.Misses > 0 {
			rec.Record(obs.Event{Kind: obs.KindCoverCache, T: b.Elapsed(),
				CacheHits: s.Hits, CacheMisses: s.Misses,
				CacheEvictions: s.Evictions, CacheSize: s.Size})
		}
		rec.Record(obs.Event{Kind: obs.KindStop, T: b.Elapsed(), Algo: label,
			Width: r.Width, LowerBound: r.LowerBound, Exact: r.Exact,
			Nodes: r.Nodes, Open: queue.Len(), MaxOpen: maxOpen,
			Closed: int(shape.closed.Load()), Stop: string(r.Stop)})
		r.Stats = stats
		return r
	}
	improve := func(w int) {
		rec.Record(obs.Event{Kind: obs.KindImprove, T: b.Elapsed(), Width: w, Nodes: b.Nodes()})
	}
	lowerBound := func(l int) {
		rec.Record(obs.Event{Kind: obs.KindLowerBound, T: b.Elapsed(), LowerBound: l, Nodes: b.Nodes()})
	}

	lb, ub, ordering := m.initial()
	if opts.InitialUB > 0 && opts.InitialUB < ub {
		ub = opts.InitialUB
		ordering = nil
	}
	improve(ub)
	lowerBound(lb)
	e := m.graph()
	if lb >= ub || e.N() == 0 {
		return ret(Result{Width: ub, LowerBound: ub, Exact: true, Ordering: ordering,
			Nodes: 0, Elapsed: b.Elapsed()})
	}

	heap.Push(queue, &state{parent: nil, vertex: -1, g: 0, f: int32(lb)})
	maxPoppedF := lb
	var prefixBuf []int
	// Dedup map: eliminated-set key -> best g pushed. PR2 is superseded by
	// (and incompatible with) dedup; see Options.DedupeStates.
	var seenSets map[string]int32
	usePR2 := !opts.DisablePR2
	if opts.DedupeStates {
		seenSets = make(map[string]int32)
		usePR2 = false
	}

	for queue.Len() > 0 {
		shape.open.Store(int64(queue.Len()))
		shape.closed.Store(int64(len(seenSets)))
		if !b.Tick() {
			break
		}
		faultinject.Hit(faultinject.SiteSearchExpand)
		s := heap.Pop(queue).(*state)
		shape.depth.Store(int64(s.depth))
		if int(s.f) >= ub {
			// Everything left is at least as wide as the known solution.
			maxPoppedF = ub
			lowerBound(ub)
			return ret(Result{Width: ub, LowerBound: ub, Exact: true,
				Ordering: ordering, Nodes: b.Nodes(), Elapsed: b.Elapsed()})
		}
		if int(s.f) > maxPoppedF {
			maxPoppedF = int(s.f) // new proved lower bound (thesis §5.3)
			lowerBound(maxPoppedF)
		}
		prefixBuf = s.prefix(prefixBuf)
		e.SetPrefix(prefixBuf)

		// Goal test: the remaining graph cannot charge more than g.
		if m.completionCap() <= int(s.g) {
			improve(int(s.g))
			return ret(Result{Width: int(s.g), LowerBound: int(s.g), Exact: true,
				Ordering: completion(e, prefixBuf), Nodes: b.Nodes(), Elapsed: b.Elapsed()})
		}

		// Children: forced reduction or all live vertices with PR2.
		var children []int
		childReduced := false
		if !opts.DisableReductions {
			if r := reduce.FindReduction(e, maxPoppedF, m.allowAlmostSimplicial()); r >= 0 {
				children = []int{r}
				childReduced = true
			}
		}
		if children == nil {
			children = e.LiveVertices(nil)
		}
		m.setCostCap(ub)
		for _, v := range children {
			// Child evaluations dominate the work; count them against the
			// budget too.
			if !b.Tick() {
				break
			}
			if !childReduced && !s.reduced && usePR2 && s.parent != nil && pr2Skip(m, v) {
				continue
			}
			cost := m.stepCost(v)
			g2 := max2(int(s.g), cost)
			if g2 >= ub {
				continue
			}
			if seenSets != nil {
				key := setKey(prefixBuf, v)
				if old, ok := seenSets[key]; ok && old <= int32(g2) {
					continue // dominated duplicate
				}
				seenSets[key] = int32(g2)
			}
			e.Eliminate(v)
			h := 0
			if !opts.DisableNodeLB {
				h = m.remainderLB()
			}
			e.Restore()
			f2 := max3(g2, h, int(s.f))
			if f2 >= ub {
				continue // memory-saving measure, thesis §5.2.3
			}
			heap.Push(queue, &state{
				parent:  s,
				vertex:  int32(v),
				depth:   s.depth + 1,
				g:       int32(g2),
				f:       int32(f2),
				reduced: childReduced,
			})
			if queue.Len() > maxOpen {
				maxOpen = queue.Len()
				shape.maxOpen.Store(int64(maxOpen))
			}
		}
	}

	if b.Stopped() {
		// Anytime result: ub from the heuristic, lb from the last expansion.
		return ret(Result{Width: ub, LowerBound: maxPoppedF, Exact: false,
			Ordering: ordering, Nodes: b.Nodes(), Elapsed: b.Elapsed(), Stop: b.Reason()})
	}
	// Queue exhausted without reaching a goal below ub: ub is optimal
	// (thesis §5.1, final return).
	lowerBound(ub)
	return ret(Result{Width: ub, LowerBound: ub, Exact: true, Ordering: ordering,
		Nodes: b.Nodes(), Elapsed: b.Elapsed()})
}

// setKey encodes prefix ∪ {v} as an order-independent string.
func setKey(prefix []int, v int) string {
	set := make([]int, 0, len(prefix)+1)
	set = append(set, prefix...)
	set = append(set, v)
	sort.Ints(set)
	var sb strings.Builder
	for _, x := range set {
		sb.WriteString(strconv.Itoa(x))
		sb.WriteByte(',')
	}
	return sb.String()
}
