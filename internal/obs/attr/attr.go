// Package attr is the solver attribution and cost-accounting layer: it
// decomposes a run — a portfolio race or a single-solver run alike — into a
// per-member resource ledger saying what each algorithm cost and what it
// contributed. The shared budget of a portfolio run answers "how much work
// happened" but not "who did it"; this package answers the second question,
// which is what instance-class dispatch decisions ("skip the GA on this
// family") have to be grounded in.
//
// The ledger's cost fields are authoritative, not sampled: attributed node
// counts come from budget member views (budget.B.Member), whose Ticks
// provably sum to the global budget.Nodes() — the conservation invariant
// Ledger.Conserved re-checks — and cache traffic comes from per-member
// cover-engine views (setcover.Engine.Member). Contribution fields
// (incumbent improvements with the width each claimed, lower bounds,
// checkpoints, stop reasons) are folded out of the existing recorder chain
// by a Collector riding each member's event stream.
//
// Serial runs get the same ledger with exactly one member whose role is
// "winner", so every consumer — daemon envelope, /metrics, tracestat —
// handles one shape, not two code paths.
package attr

import (
	"fmt"
	"sync"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/obs"
)

// The terminal roles a member can end a run with. Budget stop reasons
// (deadline, node-budget, canceled, panic) pass through as-is; these name
// the outcomes that are not budget stops.
const (
	// RoleWinner marks the member whose decomposition the run returned.
	RoleWinner = "winner"
	// RoleAbortedLoser marks a member stopped by the portfolio-win latch:
	// it was still working when a sibling's result was proven optimal.
	RoleAbortedLoser = "aborted-loser"
	// RoleCompleted marks a member that ran to completion but did not win
	// (its width was matched or beaten by an earlier-listed member).
	RoleCompleted = "completed"
)

// Role derives a member's terminal role from whether it won and its budget
// stop reason.
func Role(winner bool, stop string) string {
	switch {
	case winner:
		return RoleWinner
	case stop == string(budget.StopPortfolioWin):
		return RoleAbortedLoser
	case stop != "":
		return stop
	default:
		return RoleCompleted
	}
}

// Claim is one incumbent improvement a member contributed: the width it
// lowered the shared incumbent to, and when.
type Claim struct {
	Width int           `json:"width"`
	T     time.Duration `json:"t_ns"`
}

// Member is one solver's row of the ledger.
type Member struct {
	// Algo is the member's algorithm label.
	Algo string `json:"algo"`
	// Role is the member's terminal role: winner, aborted-loser, completed,
	// or a budget stop reason (deadline, node-budget, canceled, panic).
	Role string `json:"role"`
	// Nodes is the member's attributed share of the run's global node count
	// (work units it personally ticked through its budget member view).
	Nodes int64 `json:"nodes"`
	// CPU is the member's CPU-time estimate. Portfolio members run their
	// solve on one goroutine each (inner Workers are forced to 0), so the
	// member's wall-clock is the estimate; it can exceed the winner's
	// latency because losers keep running until aborted.
	CPU time.Duration `json:"cpu_ns"`
	// CacheHits and CacheMisses are the member's attributed cover-cache
	// traffic (queries it issued through its engine member view; a hit on an
	// entry another member populated still counts as this member's hit).
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Checkpoints counts the budget checkpoint observer rounds the member's
	// event stream carried: at most one per millisecond of run time, so it
	// measures how long the member ran, not how much work it ticked.
	Checkpoints int64 `json:"checkpoints,omitempty"`
	// Claims are the incumbent improvements this member contributed, in
	// claim order. Every improvement of the run's merged timeline appears in
	// exactly one member's Claims.
	Claims []Claim `json:"improvements,omitempty"`
	// BestWidth is the narrowest width the member realized (0 = none).
	BestWidth int `json:"best_width,omitempty"`
	// LowerBound is the best ghw lower bound the member proved (0 = none).
	LowerBound int `json:"lower_bound,omitempty"`
	// Stop is the member's budget stop reason (empty = ran to completion).
	Stop string `json:"stop,omitempty"`
}

// Ledger is a run's complete attribution record: one Member per solver that
// ran, plus the global totals they must reconcile against.
type Ledger struct {
	// Portfolio reports whether this was a portfolio race; false means the
	// degenerate one-member ledger of a serial run.
	Portfolio bool `json:"portfolio"`
	// Winner is the algo label of the member whose result was returned.
	Winner string `json:"winner,omitempty"`
	// TotalNodes is the run's global budget.Nodes(); member Nodes sum to it.
	TotalNodes int64 `json:"total_nodes"`
	// Members are the per-solver rows, in portfolio configuration order.
	Members []Member `json:"members"`
}

// Share returns m's fraction of the ledger's global node count, or 0 when
// no work was ticked at all.
func (l *Ledger) Share(m *Member) float64 {
	if l == nil || m == nil || l.TotalNodes <= 0 {
		return 0
	}
	return float64(m.Nodes) / float64(l.TotalNodes)
}

// Find returns the member row for algo, or nil.
func (l *Ledger) Find(algo string) *Member {
	if l == nil {
		return nil
	}
	for i := range l.Members {
		if l.Members[i].Algo == algo {
			return &l.Members[i]
		}
	}
	return nil
}

// Conserved verifies the accounting invariants: the member node counts sum
// exactly to TotalNodes, the named winner (if any) has a member row with
// role winner, and every member's claims are width-decreasing in claim
// order. It returns nil when the ledger balances.
func (l *Ledger) Conserved() error {
	if l == nil {
		return fmt.Errorf("attr: nil ledger")
	}
	var sum int64
	for i := range l.Members {
		sum += l.Members[i].Nodes
	}
	if sum != l.TotalNodes {
		return fmt.Errorf("attr: member nodes sum to %d, global is %d", sum, l.TotalNodes)
	}
	if l.Winner != "" {
		w := l.Find(l.Winner)
		if w == nil {
			return fmt.Errorf("attr: winner %q has no member row", l.Winner)
		}
		if w.Role != RoleWinner {
			return fmt.Errorf("attr: winner %q has role %q", l.Winner, w.Role)
		}
	}
	for i := range l.Members {
		m := &l.Members[i]
		for j := 1; j < len(m.Claims); j++ {
			if m.Claims[j].Width >= m.Claims[j-1].Width {
				return fmt.Errorf("attr: member %s claims not width-decreasing: %d then %d",
					m.Algo, m.Claims[j-1].Width, m.Claims[j].Width)
			}
		}
	}
	return nil
}

// Events renders the ledger as its terminal trace events: one attr event
// per member, all stamped at elapsed (the run's end). The attr event reuses
// the generic Event fields — Nodes/Dur/Cache* for costs, Width/LowerBound/
// Improvements for contributions, Role/Share for the verdict.
func (l *Ledger) Events(elapsed time.Duration) []obs.Event {
	if l == nil {
		return nil
	}
	evs := make([]obs.Event, 0, len(l.Members))
	for i := range l.Members {
		m := &l.Members[i]
		evs = append(evs, obs.Event{
			Kind:         obs.KindAttr,
			T:            elapsed,
			Algo:         m.Algo,
			Role:         m.Role,
			Nodes:        m.Nodes,
			Dur:          m.CPU,
			CacheHits:    m.CacheHits,
			CacheMisses:  m.CacheMisses,
			Width:        m.BestWidth,
			LowerBound:   m.LowerBound,
			Improvements: len(m.Claims),
			Share:        l.Share(m),
			Stop:         m.Stop,
		})
	}
	return evs
}

// FromEvent rebuilds a member row from its attr trace event — the inverse
// of Events, used by trace analysis.
func FromEvent(e obs.Event) Member {
	return Member{
		Algo:        e.Algo,
		Role:        e.Role,
		Nodes:       e.Nodes,
		CPU:         e.Dur,
		CacheHits:   e.CacheHits,
		CacheMisses: e.CacheMisses,
		BestWidth:   e.Width,
		LowerBound:  e.LowerBound,
		Stop:        e.Stop,
	}
}

// Collector accumulates the contribution side of the ledger off the
// recorder chain while members run: checkpoints, lower bounds, stop
// reasons, realized widths (from each member's event stream) and incumbent
// claims (reported by the portfolio when a member actually lowers the
// shared incumbent). It is safe for concurrent use — portfolio members
// record from their own goroutines.
type Collector struct {
	mu sync.Mutex
	m  map[string]*Member
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{m: make(map[string]*Member)} }

func (c *Collector) row(algo string) *Member {
	m := c.m[algo]
	if m == nil {
		m = &Member{Algo: algo}
		c.m[algo] = m
	}
	return m
}

// Observe folds one member event into the accumulator. The caller passes
// the member's algo label explicitly (the event may predate stamping).
func (c *Collector) Observe(algo string, e obs.Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.row(algo)
	switch e.Kind {
	case obs.KindCheckpoint:
		m.Checkpoints++
	case obs.KindImprove:
		if m.BestWidth == 0 || e.Width < m.BestWidth {
			m.BestWidth = e.Width
		}
	case obs.KindLowerBound:
		if e.LowerBound > m.LowerBound {
			m.LowerBound = e.LowerBound
		}
	case obs.KindStop:
		m.Stop = e.Stop
		if e.Width > 0 && (m.BestWidth == 0 || e.Width < m.BestWidth) {
			m.BestWidth = e.Width
		}
		if e.LowerBound > m.LowerBound {
			m.LowerBound = e.LowerBound
		}
	}
}

// Claim records that algo lowered the shared incumbent to width at time t.
// The portfolio calls it under its own claim lock, so claims arrive in the
// true claim order and every improvement names exactly one member.
func (c *Collector) Claim(algo string, width int, t time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.row(algo)
	m.Claims = append(m.Claims, Claim{Width: width, T: t})
	if m.BestWidth == 0 || width < m.BestWidth {
		m.BestWidth = width
	}
}

// Member returns a copy of the accumulated contribution fields for algo.
// The caller owns the authoritative cost fields (Nodes, CPU, Cache*) and
// the Role verdict; they are zero in the copy.
func (c *Collector) Member(algo string) Member {
	if c == nil {
		return Member{Algo: algo}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.row(algo)
	cp := *m
	cp.Claims = append([]Claim(nil), m.Claims...)
	return cp
}
