package core

import (
	"testing"
	"time"

	"hypertree/internal/ga"
	"hypertree/internal/hypergraph"
)

func TestDecomposeAllAlgorithmsOnSmallInstance(t *testing.T) {
	h := hypergraph.Grid2D(6) // 18 vertices, 18 edges, ghw 3, tw 4-ish
	gaCfg := ga.Config{
		PopulationSize: 30, CrossoverRate: 1, MutationRate: 0.3,
		TournamentSize: 2, MaxIterations: 30, Crossover: ga.POS, Mutation: ga.ISM, Seed: 1,
	}
	saigaCfg := ga.SAIGAConfig{
		Islands: 2, IslandPop: 15, TournamentSize: 2, Epochs: 3, EpochLength: 4, Seed: 1,
	}
	for _, alg := range Algorithms {
		opts := Options{Algorithm: alg, Seed: 1, Timeout: 20 * time.Second, GA: gaCfg, SAIGA: saigaCfg}
		d, err := Decompose(h, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d.TD == nil {
			t.Fatalf("%s: no tree decomposition", alg)
		}
		if err := d.TD.Validate(h); err != nil {
			t.Fatalf("%s: invalid TD: %v", alg, err)
		}
		if alg.IsTreewidth() {
			if d.GHD != nil {
				t.Fatalf("%s: unexpected GHD", alg)
			}
			if d.TD.Width() != d.Width {
				t.Fatalf("%s: TD width %d != reported %d", alg, d.TD.Width(), d.Width)
			}
		} else {
			if d.GHD == nil {
				t.Fatalf("%s: missing GHD", alg)
			}
			if err := d.GHD.Validate(h); err != nil {
				t.Fatalf("%s: invalid GHD: %v", alg, err)
			}
			if d.GHD.Width() != d.Width {
				t.Fatalf("%s: GHD width %d != reported %d", alg, d.GHD.Width(), d.Width)
			}
		}
		if d.LowerBound > d.Width {
			t.Fatalf("%s: lb %d > width %d", alg, d.LowerBound, d.Width)
		}
	}
}

func TestExactAlgorithmsAgree(t *testing.T) {
	h := hypergraph.CliqueHypergraph(7)
	a, err := Decompose(h, Options{Algorithm: AlgAStarGHW, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(h, Options{Algorithm: AlgBBGHW, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Exact || !b.Exact || a.Width != b.Width {
		t.Fatalf("exact ghw disagreement: A*=%d(%v) BB=%d(%v)", a.Width, a.Exact, b.Width, b.Exact)
	}
	// K7 needs ceil(7/2)=4 binary edges to cover a 7-clique bag.
	if a.Width != 4 {
		t.Fatalf("ghw(K7 hypergraph) = %d, want 4", a.Width)
	}

	ta, err := Decompose(h, Options{Algorithm: AlgAStarTW, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Decompose(h, Options{Algorithm: AlgBBTW, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ta.Width != 6 || tb.Width != 6 {
		t.Fatalf("tw(K7) = %d / %d, want 6", ta.Width, tb.Width)
	}
}

func TestParseAlgorithm(t *testing.T) {
	if _, err := ParseAlgorithm("bb-ghw"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecomposeErrors(t *testing.T) {
	empty := hypergraph.NewHypergraph(0)
	if _, err := Decompose(empty, Options{Algorithm: AlgGreedy}); err == nil {
		t.Fatal("expected error on empty hypergraph")
	}
	uncovered := hypergraph.NewHypergraph(3)
	uncovered.AddEdge(0, 1)
	if _, err := Decompose(uncovered, Options{Algorithm: AlgBBGHW}); err == nil {
		t.Fatal("expected error on uncovered vertices for ghw")
	}
	// Treewidth algorithms accept uncovered vertices.
	if _, err := Decompose(uncovered, Options{Algorithm: AlgBBTW}); err != nil {
		t.Fatalf("tw on uncovered vertices: %v", err)
	}
	g := hypergraph.Grid(3)
	if d, err := Decompose(hypergraph.FromGraph(g), Options{Algorithm: AlgAStarTW, Seed: 1}); err != nil || d.Width != 3 {
		t.Fatalf("A*-tw on grid3 = %v, %v", d, err)
	}
}
