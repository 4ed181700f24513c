// Package faultinject provides the fault-injection points used by the
// robustness tests. Production code calls Hit at named sites (search
// expansion, GA evaluation, cover computation, budget checkpoints); tests
// arm a site to run an action — typically a context cancellation or a
// panic — on the nth future hit, proving the anytime contract holds when a
// run is interrupted or blows up at an arbitrary point.
//
// When nothing is armed, Hit is a single atomic load, cheap enough to leave
// compiled into the hot paths.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// The injection sites compiled into production code.
const (
	// SiteSearchExpand fires once per expanded search node (A*/BB expansion
	// loops and det-k-decomp subproblems).
	SiteSearchExpand = "search.expand"
	// SiteGAEval fires once per GA fitness evaluation (GA and SAIGA).
	SiteGAEval = "ga.eval"
	// SiteCover fires once per bag set-cover computation.
	SiteCover = "elim.cover"
	// SiteCheckpoint fires once per budget checkpoint (budget.B.Check).
	SiteCheckpoint = "budget.checkpoint"
	// SiteParallelWorker fires once per task a parallel search worker picks
	// up, on the worker's goroutine — so tests can prove a panic inside a
	// worker is contained and surfaced as *budget.PanicError.
	SiteParallelWorker = "search.parallel.worker"
	// SiteServerParse fires once per daemon request body parse, before the
	// payload is decoded — chaos tests arm it with sleeps (slow-loris
	// parses) and panics to prove requests stay contained.
	SiteServerParse = "server.parse"
	// SiteServerHandle fires once per admitted daemon request, after the
	// worker slot is acquired and before the decomposition runs.
	SiteServerHandle = "server.handle"
)

var (
	armed atomic.Bool
	mu    sync.Mutex
	plans map[string]*plan
)

type plan struct {
	remaining int64
	action    func()
}

// Arm schedules action to run on the nth future Hit of site (n >= 1),
// replacing any previous plan for the site. The action runs at most once.
//
// test-only: the fault plans of the core, search, server and tracestat
// tests.
func Arm(site string, n int64, action func()) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		plans = make(map[string]*plan)
	}
	plans[site] = &plan{remaining: n, action: action}
	armed.Store(true)
}

// Reset disarms every site. Tests must call it (usually via defer) so a
// leftover plan cannot fire in an unrelated test.
//
// test-only: the cleanup of the core, search, server and tracestat tests.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	plans = nil
	armed.Store(false)
}

// Armed reports whether any site currently has a pending plan.
//
// test-only: the faultinject tests.
func Armed() bool { return armed.Load() }

// Hit marks one pass through an injection site. It is a no-op unless the
// site was armed; on the armed hit the action runs on the caller's
// goroutine (so an injected panic unwinds the caller's stack).
func Hit(site string) {
	if !armed.Load() {
		return
	}
	var action func()
	mu.Lock()
	if p := plans[site]; p != nil {
		p.remaining--
		if p.remaining <= 0 {
			action = p.action
			delete(plans, site)
			if len(plans) == 0 {
				armed.Store(false)
			}
		}
	}
	mu.Unlock()
	if action != nil {
		action()
	}
}
