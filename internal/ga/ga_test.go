package ga

import (
	"math/rand"
	"testing"

	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

func smallConfig(seed int64) Config {
	return Config{
		PopulationSize: 40,
		CrossoverRate:  1.0,
		MutationRate:   0.3,
		TournamentSize: 2,
		MaxIterations:  60,
		Crossover:      POS,
		Mutation:       ISM,
		Seed:           seed,
	}
}

func TestGATreewidthFindsOptimumOnEasyGraphs(t *testing.T) {
	// grid3 has treewidth 3; a tiny GA finds it reliably.
	g := hypergraph.Grid(3)
	r := Treewidth(g, smallConfig(1))
	if r.BestWidth != 3 {
		t.Fatalf("GA width on grid3 = %d, want 3", r.BestWidth)
	}
	if w := elim.WidthOfGraph(g, r.BestOrdering); w != r.BestWidth {
		t.Fatalf("reported %d but ordering evaluates to %d", r.BestWidth, w)
	}
	// K6: every ordering gives 5.
	k6 := hypergraph.CliqueGraph(6)
	if r := Treewidth(k6, smallConfig(2)); r.BestWidth != 5 {
		t.Fatalf("GA width on K6 = %d, want 5", r.BestWidth)
	}
}

func TestGAGHWFindsOptimumOnEasyHypergraphs(t *testing.T) {
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if r := GHW(tri, smallConfig(3)); r.BestWidth != 2 {
		t.Fatalf("GA ghw on triangle = %d, want 2", r.BestWidth)
	}
	// Acyclic hypergraph: ghw 1; greedy covers still reach it.
	acyc := hypergraph.NewHypergraph(5)
	acyc.AddEdge(0, 1, 2)
	acyc.AddEdge(2, 3)
	acyc.AddEdge(3, 4)
	if r := GHW(acyc, smallConfig(4)); r.BestWidth != 1 {
		t.Fatalf("GA ghw on acyclic = %d, want 1", r.BestWidth)
	}
}

func TestGADeterministicBySeed(t *testing.T) {
	g := hypergraph.Queen(4)
	a := Treewidth(g, smallConfig(11))
	b := Treewidth(g, smallConfig(11))
	if a.BestWidth != b.BestWidth || a.Evaluations != b.Evaluations {
		t.Fatalf("same seed gave different runs: %v vs %v", a.BestWidth, b.BestWidth)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatal("histories differ for identical seeds")
		}
	}
}

func TestGAHistoryMonotone(t *testing.T) {
	g := hypergraph.Queen(4)
	r := Treewidth(g, smallConfig(5))
	for i := 1; i < len(r.History); i++ {
		if r.History[i] > r.History[i-1] {
			t.Fatalf("best-so-far history increased at generation %d: %v", i, r.History)
		}
	}
	if r.Evaluations <= 0 || r.Generations <= 0 {
		t.Fatal("counters not populated")
	}
}

func TestGATargetStopsEarly(t *testing.T) {
	g := hypergraph.CliqueGraph(5) // every ordering gives 4 immediately
	cfg := smallConfig(6)
	cfg.Target = 4
	r := Treewidth(g, cfg)
	if r.Generations != 0 {
		t.Fatalf("target hit in initial population but ran %d generations", r.Generations)
	}
}

func TestGAUpperBoundSoundProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(3)
		g := hypergraph.RandomGraph(n, n+rng.Intn(n), seed)
		cfg := smallConfig(seed)
		cfg.MaxIterations = 20
		r := Treewidth(g, cfg)
		if want := elim.ExhaustiveTreewidth(g); r.BestWidth < want {
			t.Fatalf("GA reported width %d below true treewidth %d", r.BestWidth, want)
		}
	}
}

func TestSAIGAGHWRuns(t *testing.T) {
	h := hypergraph.Grid2D(6)
	cfg := SAIGAConfig{
		Islands:        3,
		IslandPop:      20,
		TournamentSize: 2,
		Epochs:         4,
		EpochLength:    5,
		Seed:           1,
	}
	r := SAIGAGHW(h, cfg)
	if r.BestWidth < 3 {
		t.Fatalf("SAIGA ghw on grid2d6 = %d, below the true ghw 3", r.BestWidth)
	}
	if len(r.FinalParams) != 3 {
		t.Fatalf("expected 3 final parameter vectors, got %d", len(r.FinalParams))
	}
	for _, p := range r.FinalParams {
		if p.Pm < 0 || p.Pm > 1 || p.Pc < 0 || p.Pc > 1 {
			t.Fatalf("parameter out of range: %+v", p)
		}
	}
	// Check the returned ordering really achieves the width. Greedy covers
	// are tie-broken randomly, so re-evaluate with exact covers, which can
	// only be at most the width any greedy evaluation reported.
	ev := elim.NewGHWEvaluator(h, true, nil)
	if w := ev.Width(r.BestOrdering); w > r.BestWidth {
		t.Fatalf("ordering evaluates to %d > reported %d", w, r.BestWidth)
	}
}

// saigaTreewidth runs SAIGA under the treewidth cost function: the island
// machinery is evaluator-agnostic, and a treewidth run checks it on graphs.
func saigaTreewidth(g *hypergraph.Graph, cfg SAIGAConfig) SAIGAResult {
	return SAIGA(g.N(), func(int, int) Evaluator { return NewTreewidthEvaluator(g) }, cfg)
}

func TestSAIGATreewidth(t *testing.T) {
	g := hypergraph.Grid(3)
	cfg := SAIGAConfig{Islands: 2, IslandPop: 20, TournamentSize: 2, Epochs: 4, EpochLength: 5, Seed: 2}
	r := saigaTreewidth(g, cfg)
	if r.BestWidth != 3 {
		t.Fatalf("SAIGA treewidth on grid3 = %d, want 3", r.BestWidth)
	}
	if w := elim.WidthOfGraph(g, r.BestOrdering); w != r.BestWidth {
		t.Fatalf("ordering width %d != reported %d", w, r.BestWidth)
	}
}

func TestSAIGADeterministicBySeed(t *testing.T) {
	h := hypergraph.CliqueHypergraph(8)
	cfg := SAIGAConfig{Islands: 2, IslandPop: 10, TournamentSize: 2, Epochs: 2, EpochLength: 3, Seed: 5}
	a := SAIGAGHW(h, cfg)
	b := SAIGAGHW(h, cfg)
	if a.BestWidth != b.BestWidth || a.Evaluations != b.Evaluations {
		t.Fatal("SAIGA not deterministic for fixed seed")
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for population < 2")
		}
	}()
	Run(5, NewTreewidthEvaluator(hypergraph.Grid(2)), Config{PopulationSize: 1, TournamentSize: 1, MaxIterations: 1})
}
