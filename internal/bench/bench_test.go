package bench

import (
	"strings"
	"testing"
	"time"
)

func TestRegistrySizesMatchPublished(t *testing.T) {
	for _, name := range GraphNames() {
		inst, err := Graph(name)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.Build()
		if inst.V > 0 && g.N() != inst.V {
			t.Errorf("%s: built %d vertices, registry says %d", name, g.N(), inst.V)
		}
		if inst.E > 0 && !inst.Substituted && g.M() != inst.E {
			t.Errorf("%s: built %d edges, registry says %d", name, g.M(), inst.E)
		}
		// Substituted instances must match exactly, except the statistical
		// geometric (miles) and interval (register-allocation) families,
		// which are bisected to the closest achievable count: allow 5%.
		if inst.Substituted && inst.E > 0 {
			statistical := strings.HasPrefix(name, "miles") ||
				strings.Contains(name, ".i.") // fpsol2/inithx/mulsol/zeroin
			if statistical {
				if diff := g.M() - inst.E; diff < -inst.E/20 || diff > inst.E/20 {
					t.Errorf("%s: edge count %d too far from %d", name, g.M(), inst.E)
				}
			} else if g.M() != inst.E {
				t.Errorf("%s (substituted): built %d edges, want %d", name, g.M(), inst.E)
			}
		}
	}
	for _, name := range HyperNames() {
		inst, err := Hyper(name)
		if err != nil {
			t.Fatal(err)
		}
		h := inst.Build()
		if h.N() != inst.V || h.M() != inst.E {
			t.Errorf("%s: built (%d,%d), registry says (%d,%d)", name, h.N(), h.M(), inst.V, inst.E)
		}
		if !h.CoversAllVertices() {
			t.Errorf("%s: leaves vertices uncovered (ghw undefined)", name)
		}
	}
}

func TestUnknownInstances(t *testing.T) {
	if _, err := Graph("nope"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Hyper("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"smoke", "small", "full"} {
		if _, err := ParseScale(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseScale("x"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.Add("x", 1)
	tb.Add("yyy", 2.5)
	out := tb.Format()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "yyy") || !strings.Contains(out, "2.5") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestExactMark(t *testing.T) {
	if exactMark(5, true, 5) != "5" {
		t.Fatal("exact mark wrong")
	}
	if exactMark(7, false, 4) != "4..7*" {
		t.Fatal("anytime mark wrong")
	}
	if orNA(-1) != "-" || orNA(3) != "3" {
		t.Fatal("orNA wrong")
	}
}

// Smoke-run every table at the smallest scale; this is the integration test
// that every experiment in EXPERIMENTS.md is runnable end to end.
func TestAllTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table smoke runs skipped in -short")
	}
	ids := TableIDs()
	if raceDetectorEnabled {
		// The full sweep is an order of magnitude slower under the race
		// detector and blows go test's default 10m package timeout. At
		// Scale.Workers 0 every table runs serially (SAIGA's islands
		// included), and the parallel engines have their own -race tests,
		// so keep one representative per algorithm family; the plain build
		// still sweeps every table.
		ids = []string{"5.2", "6.1", "7.2", "8.1", "9.1"}
	}
	seen := map[string]bool{}
	for _, id := range ids {
		runner, ok := Tables[id]
		if !ok {
			t.Fatalf("table %s has no runner", id)
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		start := time.Now()
		tb := runner(Smoke())
		t.Logf("table %s: %v", id, time.Since(start).Round(time.Millisecond))
		if len(tb.Rows) == 0 {
			t.Errorf("table %s produced no rows", id)
		}
		if len(tb.Header) == 0 {
			t.Errorf("table %s has no header", id)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("table %s: row width %d != header %d", id, len(row), len(tb.Header))
			}
		}
	}
}
