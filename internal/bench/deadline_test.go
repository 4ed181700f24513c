package bench

import (
	"testing"
	"time"

	"hypertree/internal/core"
)

// Deadline-smoke bounds: every registry hypergraph under each solver the
// daemon serves with a deadline. The slack covers what a stopped run still
// owes after its deadline: the last checkpoint interval, the exit's greedy
// covers and claim repairs, and validation. The widest instance, c880,
// needs the most: its min-fill ordering and greedy covers are polynomial but
// take ~100 ms each on two busy cores, and the portfolio returns there
// 100–170 ms late.
const (
	smokeDeadline = 250 * time.Millisecond
	smokeSlack    = 350 * time.Millisecond
)

// TestDeadlineSmoke is `make deadline-smoke`: all registry hypergraphs under
// greedy, bb-ghw and the default portfolio at a 250 ms deadline. Each run
// must return a validated decomposition within the deadline plus a fixed
// slack, and no wider than the narrowest width in its own timeline, so a
// run neither overstays its budget nor loses the width it found. Under the
// race detector only the wall-clock assertion is skipped.
func TestDeadlineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deadline smoke runs skipped in -short")
	}
	for _, name := range HyperNames() {
		inst, err := Hyper(name)
		if err != nil {
			t.Fatal(err)
		}
		h := inst.Build()
		for _, alg := range []core.Algorithm{core.AlgGreedy, core.AlgBBGHW, core.AlgPortfolio} {
			start := time.Now()
			d, err := core.Decompose(h, core.Options{Algorithm: alg, Timeout: smokeDeadline, Seed: 1})
			took := time.Since(start)
			if err != nil {
				t.Errorf("%s/%s: %v", name, alg, err)
				continue
			}
			if !raceDetectorEnabled && took > smokeDeadline+smokeSlack {
				t.Errorf("%s/%s: returned after %v, over the %v deadline plus %v slack",
					name, alg, took.Round(time.Millisecond), smokeDeadline, smokeSlack)
			}
			if err := d.TD.Validate(h); err != nil {
				t.Errorf("%s/%s: invalid tree decomposition: %v", name, alg, err)
			} else if err := d.GHD.Validate(h); err != nil {
				t.Errorf("%s/%s: invalid GHD: %v", name, alg, err)
			}
			if d.Width != d.GHD.Width() {
				t.Errorf("%s/%s: reported width %d, GHD width %d", name, alg, d.Width, d.GHD.Width())
			}
			for _, p := range d.Stats.Snapshot().Timeline {
				if d.Width > p.Width {
					t.Errorf("%s/%s: returned width %d after its timeline reached %d", name, alg, d.Width, p.Width)
					break
				}
			}
			t.Logf("%s/%s: width %d lb %d exact %v stop %q in %v", name, alg, d.Width, d.LowerBound,
				d.Exact, d.Stop, took.Round(time.Millisecond))
		}
	}
}
