package ga

import (
	"context"
	"math/rand"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/setcover"
)

// SAIGAConfig controls SAIGA-ghw (thesis §7.2), the self-adaptive island
// genetic algorithm: several islands evolve independently, each carrying its
// own control-parameter vector; parameter vectors are mutated over time and
// oriented toward the parameters of better-performing neighbor islands, so
// no hand tuning of rates is required (thesis §7.2.2–7.2.5).
type SAIGAConfig struct {
	Islands        int // number of islands (ring topology)
	IslandPop      int // population size per island
	TournamentSize int
	Epochs         int // number of epochs
	EpochLength    int // generations per epoch between adaptation steps
	Seed           int64
	Timeout        time.Duration
	Target         int
	// Ctx optionally cancels the run at the evaluation checkpoints; on
	// cancellation SAIGA returns its best-so-far anytime result.
	Ctx context.Context
	// Budget, when non-nil, supersedes Ctx/Timeout: every fitness
	// evaluation (on any island) draws one work unit from it.
	Budget *budget.B
	// Recorder, when non-nil, receives the run's instrumentation events.
	// Budget checkpoints fire from whichever goroutine ticks the budget
	// (scoring workers with Workers > 1, any other sharer of Budget), so it
	// must be safe for concurrent use; improvement and epoch summaries are
	// emitted serially between epochs.
	Recorder obs.Recorder
	// Label overrides the algorithm label on emitted events; the wrappers
	// set "saiga-ghw"/"saiga-tw", plain "saiga" otherwise.
	Label string
	// Workers sets how many goroutines score an island's population
	// (fitness evaluation); 0 or 1 keeps the whole run on the caller's
	// goroutine. The islands always evolve in turn, so a run scores on at
	// most Workers goroutines at once. Like ga.Config.Workers, parallel
	// scoring with randomized greedy covers can vary tie-breaking;
	// deterministic evaluators (treewidth) produce identical results at any
	// worker count.
	Workers int
	// Engine, when non-nil, is the cover engine SAIGAGHW builds its island
	// evaluators on instead of creating its own, sharing its memo cache with
	// every other solver on the same engine (a portfolio race). SAIGAGHW does
	// not attach cfg.Recorder to an injected engine — its recorder fields are
	// unsynchronized, so the sharing caller attaches one before fan-out.
	Engine *setcover.Engine
}

func (c SAIGAConfig) budgetFor() *budget.B {
	if c.Budget != nil {
		return c.Budget
	}
	return budget.New(c.Ctx, budget.Limits{Timeout: c.Timeout})
}

// SAIGADefaults returns a small but representative configuration.
func SAIGADefaults() SAIGAConfig {
	return SAIGAConfig{
		Islands:        8,
		IslandPop:      250,
		TournamentSize: 3,
		Epochs:         20,
		EpochLength:    25,
	}
}

// paramVector is an island's self-adapted parameter set (thesis §7.2.2):
// mutation rate, crossover rate, and the operator choices.
type paramVector struct {
	pm, pc    float64
	crossover CrossoverOp
	mutation  MutationOp
}

// randomParams initializes a parameter vector uniformly within the thesis's
// admissible ranges (§7.2.3).
func randomParams(rng *rand.Rand) paramVector {
	return paramVector{
		pm:        rng.Float64(),           // [0,1)
		pc:        0.5 + 0.5*rng.Float64(), // [0.5,1)
		crossover: CrossoverOps[rng.Intn(len(CrossoverOps))],
		mutation:  MutationOps[rng.Intn(len(MutationOps))],
	}
}

// mutateParams perturbs the vector (thesis §7.2.4, Figure 7.4): rates get
// Gaussian noise clamped to their ranges; with small probability the
// operator genes resample.
func mutateParams(p paramVector, rng *rand.Rand) paramVector {
	p.pm = clamp(p.pm+rng.NormFloat64()*0.1, 0, 1)
	p.pc = clamp(p.pc+rng.NormFloat64()*0.1, 0, 1)
	if rng.Float64() < 0.15 {
		p.crossover = CrossoverOps[rng.Intn(len(CrossoverOps))]
	}
	if rng.Float64() < 0.15 {
		p.mutation = MutationOps[rng.Intn(len(MutationOps))]
	}
	return p
}

// orientTowards moves p's rates halfway toward a better neighbor's and
// copies the neighbor's operators with probability ½ (thesis §7.2.5,
// "neighbor orientation").
func orientTowards(p, better paramVector, rng *rand.Rand) paramVector {
	p.pm += (better.pm - p.pm) * 0.5
	p.pc += (better.pc - p.pc) * 0.5
	if rng.Intn(2) == 0 {
		p.crossover = better.crossover
	}
	if rng.Intn(2) == 0 {
		p.mutation = better.mutation
	}
	return p
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SAIGAResult reports a SAIGA-ghw run.
type SAIGAResult struct {
	BestWidth    int
	BestOrdering []int
	Evaluations  int64
	Elapsed      time.Duration
	// Stop says why the run ended early; StopNone when all epochs ran or
	// Target was reached.
	Stop budget.StopReason
	// CoverCacheHits and CoverCacheMisses report the islands' shared cover
	// engine's memo-cache counters (ghw runs only).
	CoverCacheHits   int64
	CoverCacheMisses int64
	// Stats aggregates the run's event stream (anytime-width timeline,
	// per-epoch island summaries, effort counters). Always populated.
	Stats *obs.RunStats
	// FinalParams holds each island's adapted parameters at termination,
	// for inspection of what the self-adaptation converged to.
	FinalParams []struct {
		Pm, Pc    float64
		Crossover CrossoverOp
		Mutation  MutationOp
	}
}

// island is one population with its parameter vector and its own rng and
// evaluators. The islands of an epoch evolve in turn; cross-island steps
// (migration, parameter orientation) run between epochs.
type island struct {
	pop    [][]int
	fit    []int
	ok     []bool // per-individual scored flags, reset each generation
	params paramVector
	best   []int
	bestF  int
	rng    *rand.Rand
	// evs holds one evaluator per fitness worker (evaluators own scratch
	// state, so each scoring goroutine needs its own); len(evs) == 1 keeps
	// the serial per-island loop.
	evs   []Evaluator
	evals int64
}

// resetOK clears the scored flags before a generation's evaluation pass.
func (isl *island) resetOK() {
	for i := range isl.ok {
		isl.ok[i] = false
	}
}

// SAIGAGHW runs SAIGA-ghw on a hypergraph and returns an upper bound on its
// generalized hypertree width (the thesis's configuration, §7.2). The
// islands share one cover engine: a bag scored on any island is memoized for
// all of them.
func SAIGAGHW(h *hypergraph.Hypergraph, cfg SAIGAConfig) SAIGAResult {
	if cfg.Label == "" {
		cfg.Label = "saiga-ghw"
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
	res := SAIGA(h.N(), func(i, worker int) Evaluator {
		seed := cfg.Seed ^ 0x51a + int64(i)*1000003 + int64(worker)*7919
		return NewGHWEvaluatorWithEngine(eng, rand.New(rand.NewSource(seed)))
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

// SAIGA runs the self-adaptive island GA over orderings of n vertices.
// newEval builds one evaluator per (island, fitness worker) pair (evaluators
// own scratch state and are not safe for concurrent use, so no two
// goroutines may share one; cfg.Workers <= 1 asks for one worker per
// island).
func SAIGA(n int, newEval func(island, worker int) Evaluator, cfg SAIGAConfig) SAIGAResult {
	if cfg.Islands < 2 {
		panic("ga: SAIGA needs at least 2 islands")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	b := cfg.budgetFor()
	label := cfg.Label
	if label == "" {
		label = "saiga"
	}
	stats := obs.NewRunStats()
	rec := obs.Tee(stats, cfg.Recorder)
	b.OnCheckpoint(obs.Checkpointer(rec))
	rec.Record(obs.Event{Kind: obs.KindStart, T: b.Elapsed(), Algo: label, N: n})

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.IslandPop {
		workers = cfg.IslandPop
	}
	isles := make([]*island, cfg.Islands)
	for i := range isles {
		evs := make([]Evaluator, workers)
		for w := range evs {
			evs[w] = newEval(i, w)
		}
		isles[i] = &island{
			pop:    make([][]int, cfg.IslandPop),
			fit:    make([]int, cfg.IslandPop),
			ok:     make([]bool, cfg.IslandPop),
			params: randomParams(rng),
			rng:    rand.New(rand.NewSource(cfg.Seed + 0x5eed*int64(i+1))),
			evs:    evs,
			bestF:  int(^uint(0) >> 1), // until the first evaluation lands
		}
	}

	// Initial populations, evaluated island by island (and, with Workers > 1,
	// worker-parallel within each island).
	for _, isl := range isles {
		for j := range isl.pop {
			isl.pop[j] = isl.rng.Perm(n)
		}
		isl.resetOK()
		isl.evals += evalPop(isl.pop, isl.fit, isl.ok, 0, isl.evs, b)
		for j := range isl.pop {
			if isl.ok[j] && isl.fit[j] < isl.bestF {
				// Fresh copy: globalBest snapshots isl.best by reference.
				isl.best = append([]int(nil), isl.pop[j]...)
				isl.bestF = isl.fit[j]
			}
		}
	}

	// totalEvals and improve run only between epochs, when no island is
	// scoring, so the per-island counters are stable.
	totalEvals := func() int64 {
		var t int64
		for _, isl := range isles {
			t += isl.evals
		}
		return t
	}
	improve := func(w, epoch int) {
		rec.Record(obs.Event{Kind: obs.KindImprove, T: b.Elapsed(),
			Width: w, Evaluations: totalEvals(), Generation: epoch})
	}

	globalBest, globalF := isles[0].best, isles[0].bestF
	for _, isl := range isles {
		if isl.bestF < globalF {
			globalBest, globalF = isl.best, isl.bestF
		}
	}
	if globalBest == nil {
		// Budget exhausted before any evaluation: score one ordering anyway
		// so the anytime contract (a valid result with a true width) holds.
		globalBest = isles[0].pop[0]
		globalF = isles[0].evs[0].Evaluate(globalBest)
		isles[0].evals++
		isles[0].best = append([]int(nil), globalBest...)
		isles[0].bestF = globalF
	}
	improve(globalF, 0)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Target > 0 && globalF <= cfg.Target {
			break
		}
		if b.Stopped() || !b.Check() {
			break
		}
		for _, isl := range isles {
			evolveIsland(isl, cfg, b)
		}
		prevF := globalF
		for _, isl := range isles {
			if isl.bestF < globalF {
				globalBest, globalF = isl.best, isl.bestF
			}
		}
		if globalF < prevF {
			improve(globalF, epoch+1)
		}
		for i, isl := range isles {
			mean, std, distinct, _ := diversity(isl.fit, isl.ok)
			rec.Record(obs.Event{Kind: obs.KindGeneration, T: b.Elapsed(),
				Generation: epoch + 1, Island: i + 1, Width: isl.bestF,
				MeanWidth: mean, WidthStd: std, DistinctWidths: distinct,
				Evaluations: isl.evals})
		}
		if b.Stopped() {
			// An island cut mid-generation leaves fit scoring the previous
			// generation; skip migration/adaptation over that stale state.
			break
		}
		// Migration: each island sends its best individual to the next in
		// the ring, replacing the worst.
		for i, isl := range isles {
			next := isles[(i+1)%len(isles)]
			worst := sortByFitness(next.fit)[len(next.fit)-1]
			next.pop[worst] = append([]int(nil), isl.best...)
			next.fit[worst] = isl.bestF
		}
		// Self-adaptation: mutate parameters, then orient toward better
		// ring neighbors.
		for i, isl := range isles {
			isl.params = mutateParams(isl.params, rng)
			left := isles[(i+len(isles)-1)%len(isles)]
			right := isles[(i+1)%len(isles)]
			better := isl
			if left.bestF < better.bestF {
				better = left
			}
			if right.bestF < better.bestF {
				better = right
			}
			if better != isl {
				isl.params = orientTowards(isl.params, better.params, rng)
			}
		}
	}

	res := SAIGAResult{
		BestWidth:    globalF,
		BestOrdering: append([]int(nil), globalBest...),
		Elapsed:      time.Since(start),
		Stop:         b.Reason(),
		Stats:        stats,
	}
	rec.Record(obs.Event{Kind: obs.KindStop, T: b.Elapsed(), Algo: label,
		Width: globalF, Evaluations: totalEvals(), Stop: string(b.Reason())})
	for _, isl := range isles {
		res.Evaluations += isl.evals
		res.FinalParams = append(res.FinalParams, struct {
			Pm, Pc    float64
			Crossover CrossoverOp
			Mutation  MutationOp
		}{isl.params.pm, isl.params.pc, isl.params.crossover, isl.params.mutation})
	}
	return res
}

// evolveIsland runs EpochLength generations of the basic GA on one island
// with its current parameters, drawing one budget work unit per evaluation.
func evolveIsland(isl *island, cfg SAIGAConfig, b *budget.B) {
	popSize := len(isl.pop)
	for gen := 0; gen < cfg.EpochLength; gen++ {
		if b.Stopped() {
			return
		}
		if cfg.Target > 0 && isl.bestF <= cfg.Target {
			return
		}
		next := make([][]int, popSize)
		for i := range next {
			next[i] = append([]int(nil), tournament(isl.pop, isl.fit, cfg.TournamentSize, isl.rng)...)
		}
		pairs := int(isl.params.pc * float64(popSize) / 2)
		isl.rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
		for p := 0; p < pairs; p++ {
			a, b2 := 2*p, 2*p+1
			if b2 >= len(next) {
				break
			}
			c1, c2 := Crossover(isl.params.crossover, next[a], next[b2], isl.rng)
			next[a], next[b2] = c1, c2
		}
		for i := range next {
			if isl.rng.Float64() < isl.params.pm {
				Mutate(isl.params.mutation, next[i], isl.rng)
			}
		}
		isl.pop = next
		isl.resetOK()
		isl.evals += evalPop(isl.pop, isl.fit, isl.ok, 0, isl.evs, b)
		// Trust only the scored individuals: on a mid-generation stop the
		// unscored fit entries still hold the previous generation's values.
		complete := true
		for i := range isl.pop {
			if !isl.ok[i] {
				complete = false
				continue
			}
			if isl.fit[i] < isl.bestF {
				// Fresh copy: globalBest snapshots isl.best by reference.
				isl.best = append([]int(nil), isl.pop[i]...)
				isl.bestF = isl.fit[i]
			}
		}
		if !complete {
			return
		}
	}
}
