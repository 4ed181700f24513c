package ga

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/elim"
	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/setcover"
)

// Evaluator scores an elimination ordering; lower is better. The two
// instances used by the thesis are the treewidth evaluator (Figure 6.2) and
// the ghw evaluator with greedy set covers (Figure 7.1).
type Evaluator interface {
	Evaluate(order []int) int
}

// TreewidthEvaluator evaluates orderings by the induced tree-decomposition
// width. Not safe for concurrent use (it owns one elimination graph).
type TreewidthEvaluator struct {
	e *elimgraph.ElimGraph
}

// NewTreewidthEvaluator builds a treewidth evaluator for g.
func NewTreewidthEvaluator(g *hypergraph.Graph) *TreewidthEvaluator {
	return &TreewidthEvaluator{e: elimgraph.New(g)}
}

// Evaluate implements Evaluator.
func (t *TreewidthEvaluator) Evaluate(order []int) int { return elim.Width(t.e, order) }

// GHWEvaluator adapts elim.GHWEvaluator to the GA Evaluator interface.
type GHWEvaluator struct {
	ev *elim.GHWEvaluator
}

// NewGHWEvaluatorWithEngine builds a greedy-cover ghw evaluator on a shared
// cover engine, so parallel workers and SAIGA islands pool one bag-cover
// memo cache.
func NewGHWEvaluatorWithEngine(eng *setcover.Engine, rng *rand.Rand) *GHWEvaluator {
	return &GHWEvaluator{ev: elim.NewGHWEvaluatorWithEngine(eng, false, rng)}
}

// Evaluate implements Evaluator.
func (g *GHWEvaluator) Evaluate(order []int) int { return g.ev.Width(order) }

// Config holds the control parameters of algorithm GA-tw / GA-ghw
// (thesis Figure 6.1): population size n, crossover rate p_c, mutation rate
// p_m, tournament group size s, and iteration count.
type Config struct {
	PopulationSize int
	CrossoverRate  float64
	MutationRate   float64
	TournamentSize int
	MaxIterations  int
	Crossover      CrossoverOp
	Mutation       MutationOp
	Seed           int64
	// Timeout optionally bounds the run; zero means none.
	Timeout time.Duration
	// Target, when positive, stops the run early once the best width
	// reaches it (useful when a matching lower bound is known).
	Target int
	// Ctx optionally cancels the run at the evaluation checkpoints; on
	// cancellation Run returns its best-so-far anytime result.
	Ctx context.Context
	// Budget, when non-nil, supersedes Ctx/Timeout: every fitness
	// evaluation draws one work unit from it. core.Decompose shares one
	// budget across the whole run.
	Budget *budget.B
	// Workers sets how many goroutines score a generation in parallel
	// (RunParallel); 0 or 1 evaluates serially, exactly like Run. Parallel
	// workers draw from the same Budget, so limits still hold globally,
	// but each worker owns an evaluator: with randomized greedy covers,
	// the assignment of individuals to workers (and hence tie-breaking)
	// varies run to run.
	Workers int
	// Recorder, when non-nil, receives the run's instrumentation events
	// (budget checkpoints fire from worker goroutines, so it must be safe
	// for concurrent use). nil disables external tracing; the run still
	// aggregates its own RunStats.
	Recorder obs.Recorder
	// Label overrides the algorithm label on emitted events; the wrappers
	// set "ga-tw"/"ga-ghw", plain "ga" otherwise.
	Label string
	// Engine, when non-nil, is the cover engine GHW builds its evaluators on
	// instead of creating its own, sharing its memo cache with every other
	// solver on the same engine (a portfolio race). GHW does not attach
	// cfg.Recorder to an injected engine — its recorder fields are
	// unsynchronized, so the sharing caller attaches one before fan-out.
	// Ignored by the treewidth entry points.
	Engine *setcover.Engine
}

// budgetFor returns the run budget: the caller-supplied one, or a fresh
// budget built from the legacy Ctx/Timeout fields.
func (c Config) budgetFor() *budget.B {
	if c.Budget != nil {
		return c.Budget
	}
	return budget.New(c.Ctx, budget.Limits{Timeout: c.Timeout})
}

// ThesisDefaults returns the control parameters selected by the thesis's
// tuning experiments (§6.3): n=2000, p_c=1.0, p_m=0.3, s=3, POS + ISM.
func ThesisDefaults() Config {
	return Config{
		PopulationSize: 2000,
		CrossoverRate:  1.0,
		MutationRate:   0.3,
		TournamentSize: 3,
		MaxIterations:  2000,
		Crossover:      POS,
		Mutation:       ISM,
	}
}

// Result reports a GA run.
type Result struct {
	BestWidth    int
	BestOrdering []int
	Generations  int
	Evaluations  int64
	Elapsed      time.Duration
	// History records the best width after each generation (index 0 is the
	// initial population), for the convergence experiments.
	History []int
	// Stop says why the run ended early (deadline, node budget, canceled);
	// StopNone when all generations ran or Target was reached.
	Stop budget.StopReason
	// CoverCacheHits and CoverCacheMisses report the shared cover engine's
	// memo-cache counters for ghw runs (zero for treewidth runs, which do
	// not cover bags).
	CoverCacheHits   int64
	CoverCacheMisses int64
	// Stats aggregates the run's event stream (anytime-width timeline,
	// per-generation summaries, effort counters). Always populated.
	Stats *obs.RunStats
}

// Run executes the genetic algorithm of thesis Figure 6.1 over orderings of
// n vertices, scored by eval.
func Run(n int, eval Evaluator, cfg Config) Result {
	return runGA(n, []Evaluator{eval}, cfg)
}

// RunParallel is Run with cfg.Workers fitness workers scoring each
// generation concurrently; newEval builds one evaluator per worker
// (evaluators own scratch state and must not be shared across goroutines —
// share a setcover.Engine between them instead). With Workers <= 1 it is
// exactly Run(n, newEval(0), cfg).
func RunParallel(n int, newEval func(worker int) Evaluator, cfg Config) Result {
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	if w > cfg.PopulationSize {
		w = cfg.PopulationSize
	}
	evs := make([]Evaluator, w)
	for i := range evs {
		evs[i] = newEval(i)
	}
	return runGA(n, evs, cfg)
}

// evalPop scores pop[start:] into fit, marking ok[i] for every index it
// managed to evaluate before the budget ran out, and returns the number of
// evaluations performed. One evaluator runs serially on the caller's
// goroutine; several run as a worker pool drawing indices (and budget work
// units) from shared atomics. A worker panic is captured and re-raised on
// the caller after the pool drains, preserving the containment barrier in
// core.Decompose.
func evalPop(pop [][]int, fit []int, ok []bool, start int, evs []Evaluator, b *budget.B) int64 {
	if len(evs) == 1 {
		evals := int64(0)
		for i := start; i < len(pop); i++ {
			if !b.Tick() {
				break
			}
			faultinject.Hit(faultinject.SiteGAEval)
			fit[i] = evs[0].Evaluate(pop[i])
			ok[i] = true
			evals++
		}
		return evals
	}
	var next, evals atomic.Int64
	next.Store(int64(start))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var pan *budget.PanicError
	for _, ev := range evs {
		ev := ev
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if pan == nil {
						pan = budget.AsPanicError(r)
					}
					mu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pop) {
					return
				}
				if !b.Tick() {
					return
				}
				faultinject.Hit(faultinject.SiteGAEval)
				fit[i] = ev.Evaluate(pop[i])
				ok[i] = true
				evals.Add(1)
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(pan)
	}
	return evals.Load()
}

func runGA(n int, evs []Evaluator, cfg Config) Result {
	if cfg.PopulationSize < 2 {
		panic("ga: population size must be at least 2")
	}
	if cfg.TournamentSize < 1 {
		panic("ga: tournament size must be at least 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	b := cfg.budgetFor()
	label := cfg.Label
	if label == "" {
		label = "ga"
	}
	stats := obs.NewRunStats()
	rec := obs.Tee(stats, cfg.Recorder)
	b.OnCheckpoint(obs.Checkpointer(rec))
	rec.Record(obs.Event{Kind: obs.KindStart, T: b.Elapsed(), Algo: label, N: n})

	pop := make([][]int, cfg.PopulationSize)
	fit := make([]int, cfg.PopulationSize)
	ok := make([]bool, cfg.PopulationSize)
	evals := int64(0)
	for i := range pop {
		pop[i] = rng.Perm(n)
	}
	// The first individual is always evaluated — even on an exhausted
	// budget the caller gets one valid scored ordering back.
	faultinject.Hit(faultinject.SiteGAEval)
	fit[0] = evs[0].Evaluate(pop[0])
	ok[0] = true
	evals++
	evals += evalPop(pop, fit, ok, 1, evs, b)
	best, bestFit := pop[0], fit[0]
	for i := 1; i < len(pop); i++ {
		if ok[i] && fit[i] < bestFit {
			best, bestFit = pop[i], fit[i]
		}
	}
	history := []int{bestFit}
	rec.Record(obs.Event{Kind: obs.KindImprove, T: b.Elapsed(), Width: bestFit, Evaluations: evals})

	gen := 0
	for ; gen < cfg.MaxIterations; gen++ {
		if bestFit <= cfg.Target && cfg.Target > 0 {
			break
		}
		if b.Stopped() || !b.Check() {
			break
		}
		// Selection (tournament, thesis §6.1).
		next := make([][]int, cfg.PopulationSize)
		for i := range next {
			next[i] = append([]int(nil), tournament(pop, fit, cfg.TournamentSize, rng)...)
		}
		// Recombination: the first p_c fraction of the population is
		// recombined pairwise; the rest passes through unchanged.
		pairs := int(cfg.CrossoverRate * float64(cfg.PopulationSize) / 2)
		rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
		for p := 0; p < pairs; p++ {
			a, b := 2*p, 2*p+1
			if b >= len(next) {
				break
			}
			c1, c2 := Crossover(cfg.Crossover, next[a], next[b], rng)
			next[a], next[b] = c1, c2
		}
		// Mutation.
		for i := range next {
			if rng.Float64() < cfg.MutationRate {
				Mutate(cfg.Mutation, next[i], rng)
			}
		}
		// Evaluation. On budget exhaustion mid-generation only the scored
		// individuals (ok) are trusted: elsewhere fit still scores the
		// previous generation's individuals.
		pop = next
		for i := range ok {
			ok[i] = false
		}
		evals += evalPop(pop, fit, ok, 0, evs, b)
		complete := true
		prevBest := bestFit
		for i := range pop {
			if !ok[i] {
				complete = false
				continue
			}
			if fit[i] < bestFit {
				best, bestFit = pop[i], fit[i]
			}
		}
		if bestFit < prevBest {
			rec.Record(obs.Event{Kind: obs.KindImprove, T: b.Elapsed(),
				Width: bestFit, Evaluations: evals, Generation: gen + 1})
		}
		mean, std, distinct, _ := diversity(fit, ok)
		rec.Record(obs.Event{Kind: obs.KindGeneration, T: b.Elapsed(), Generation: gen + 1,
			Width: bestFit, MeanWidth: mean, WidthStd: std, DistinctWidths: distinct,
			Evaluations: evals})
		history = append(history, bestFit)
		if !complete {
			break
		}
	}

	rec.Record(obs.Event{Kind: obs.KindStop, T: b.Elapsed(), Algo: label,
		Width: bestFit, Generation: gen, Evaluations: evals, Stop: string(b.Reason())})
	return Result{
		BestWidth:    bestFit,
		BestOrdering: append([]int(nil), best...),
		Generations:  gen,
		Evaluations:  evals,
		Elapsed:      time.Since(start),
		History:      history,
		Stop:         b.Reason(),
		Stats:        stats,
	}
}

// Treewidth runs GA-tw (thesis Chapter 6) on a graph and returns an upper
// bound on its treewidth.
func Treewidth(g *hypergraph.Graph, cfg Config) Result {
	if cfg.Label == "" {
		cfg.Label = "ga-tw"
	}
	return Run(g.N(), NewTreewidthEvaluator(g), cfg)
}

// TreewidthOfHypergraph runs GA-tw on a hypergraph's primal graph
// (Lemma 1: their tree decompositions coincide).
func TreewidthOfHypergraph(h *hypergraph.Hypergraph, cfg Config) Result {
	if cfg.Label == "" {
		cfg.Label = "ga-tw"
	}
	return Run(h.N(), NewTreewidthEvaluator(h.PrimalGraph()), cfg)
}

// GHW runs GA-ghw (thesis §7.1) on a hypergraph and returns an upper bound
// on its generalized hypertree width. With cfg.Workers > 1 the generations
// are scored in parallel; all workers share one cover engine, whose cache
// counters are reported in the result.
func GHW(h *hypergraph.Hypergraph, cfg Config) Result {
	if cfg.Label == "" {
		cfg.Label = "ga-ghw"
	}
	eng := cfg.Engine
	if eng == nil {
		eng = setcover.NewEngine(h, setcover.DefaultCacheCapacity)
		// Sampled live snapshots go to the external recorder only; the final
		// snapshot below lands in both it and the run's RunStats. An injected
		// engine keeps whatever recorder its owner attached (the fields are
		// unsynchronized, so only the sharing caller may set them).
		eng.SetRecorder(cfg.Recorder, 0)
	}
	res := RunParallel(h.N(), func(worker int) Evaluator {
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9 + int64(worker)*1000003))
		return NewGHWEvaluatorWithEngine(eng, rng)
	}, cfg)
	st := eng.CacheStats()
	res.CoverCacheHits, res.CoverCacheMisses = st.Hits, st.Misses
	ev := obs.Event{Kind: obs.KindCoverCache, T: res.Elapsed,
		CacheHits: st.Hits, CacheMisses: st.Misses,
		CacheEvictions: st.Evictions, CacheSize: st.Size}
	res.Stats.Record(ev)
	if cfg.Recorder != nil {
		cfg.Recorder.Record(ev)
	}
	return res
}

// diversity summarizes the scored widths of one generation — mean, standard
// deviation and the number of distinct values — the population-diversity
// fields of generation events. A collapsed population (every individual the
// same ordering cost) has std near 0 and distinct 1; that is the GA plateau
// signature the trace analytics look for. A nil ok treats every index as
// scored.
func diversity(fit []int, ok []bool) (mean, std float64, distinct, scored int) {
	var sum, sumSq float64
	seen := make(map[int]struct{}, 8)
	for i, f := range fit {
		if ok != nil && !ok[i] {
			continue
		}
		scored++
		x := float64(f)
		sum += x
		sumSq += x * x
		seen[f] = struct{}{}
	}
	if scored == 0 {
		return 0, 0, 0, 0
	}
	mean = sum / float64(scored)
	if v := sumSq/float64(scored) - mean*mean; v > 0 {
		std = math.Sqrt(v)
	}
	return mean, std, len(seen), scored
}

// tournament picks s random individuals and returns the fittest.
func tournament(pop [][]int, fit []int, s int, rng *rand.Rand) []int {
	best := rng.Intn(len(pop))
	for k := 1; k < s; k++ {
		i := rng.Intn(len(pop))
		if fit[i] < fit[best] {
			best = i
		}
	}
	return pop[best]
}

// sortByFitness orders indices of fit ascending (used by SAIGA migration).
func sortByFitness(fit []int) []int {
	idx := make([]int, len(fit))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return fit[idx[a]] < fit[idx[b]] })
	return idx
}
