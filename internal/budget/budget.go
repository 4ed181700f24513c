// Package budget is the unified run-budget abstraction shared by every
// algorithm in this repository. A budget carries an optional
// context.Context, a wall-clock deadline, and a search-node (work-unit)
// budget; algorithms call Tick once per unit of work and Check at coarser
// checkpoints, and stop cooperatively as soon as any limit trips. Because
// every algorithm here attacks an NP-hard problem, runs routinely end by
// budget rather than by completion — the budget records *why* a run stopped
// (StopReason) so callers can report best-so-far anytime results honestly.
//
// A nil *B is valid everywhere and means "unlimited": Tick/Check return
// true, Stopped reports false. This lets library entry points accept an
// optional budget without nil checks at every call site.
//
// All methods are safe for concurrent use (portfolio members share one
// budget across goroutines, as do parallel GA and SAIGA scoring workers).
package budget

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/budget/faultinject"
)

// StopReason says why a run ended early. The empty value means the run
// completed normally.
type StopReason string

// The stop reasons.
const (
	StopNone     StopReason = ""            // ran to completion
	StopDeadline StopReason = "deadline"    // wall-clock budget exhausted
	StopNodes    StopReason = "node-budget" // work-unit budget exhausted
	StopCanceled StopReason = "canceled"    // context canceled (e.g. SIGINT)
	StopPanic    StopReason = "panic"       // a contained panic ended the run
	// StopPortfolioWin aborts the losing members of a portfolio race once one
	// member's result is proven optimal. It is an internal coordination
	// signal, not a failure: core maps it back to a completed run
	// (Stop == StopNone, Exact == true) before returning to the caller.
	StopPortfolioWin StopReason = "portfolio-win"
)

// Limits configures a budget. Zero values mean unlimited.
type Limits struct {
	// Timeout bounds wall-clock time from New.
	Timeout time.Duration
	// MaxNodes bounds the number of Ticks (search expansions, GA
	// evaluations — whatever the algorithm counts as a unit of work).
	MaxNodes int64
	// CheckEvery is how many Ticks pass between deadline/context
	// checkpoints; defaults to 256. Tests lower it to make cancellation
	// land promptly even in short runs.
	CheckEvery int64
}

// observeGap is the least run time between two checkpoint observer rounds
// (see OnCheckpoint). Limits are polled at every checkpoint; observers ride
// only the checkpoints that come at least observeGap after the last round,
// so a run's event volume follows its wall-clock, not its work rate or the
// number of solvers sharing the budget.
const observeGap = time.Millisecond

// B is a run budget. The zero value is not useful; use New. A nil *B is
// valid and unlimited.
//
// A budget is either a root (parent == nil) or an attributed member view of
// a root (see Member). A member view shares the root's limits, stop latch
// and clock — every limit check reads root state — but keeps its own node
// counter, so concurrent solvers racing on one budget can each account for
// the work they personally ticked. Conservation holds by construction:
// every member Tick increments exactly the member's counter and the root's
// counter, so as long as nothing ticks the root directly, the member counts
// sum to the root's Nodes().
type B struct {
	ctx        context.Context
	deadline   time.Time
	maxNodes   int64
	checkEvery int64
	start      time.Time
	// onCheck holds the checkpoint observers (see OnCheckpoint) as an
	// immutable slice behind an atomic pointer: the checkpoint path loads it
	// lock-free, and installs copy-on-write under mu. Instrumentation
	// piggybacks on the cancellation polls the algorithms already perform, so
	// observing a run adds no new hot-path branches. lastObs is the run time
	// (ns) of the last observer round; the checkpoint that advances it by at
	// least observeGap wins a compare-and-swap and runs the next round.
	onCheck atomic.Pointer[[]CheckpointFunc]
	lastObs atomic.Int64

	// parent makes this budget an attributed member view; it is immutable
	// after Member. nodes is the root's global work counter on a root, and
	// the member's attributed share on a view.
	parent *B

	nodes   atomic.Int64
	stopped atomic.Bool
	mu      sync.Mutex
	reason  StopReason
}

// CheckpointFunc observes a cooperative checkpoint: the work units ticked so
// far and the wall-clock time since New. It is called from whichever
// goroutine hit the checkpoint (portfolio members and parallel GA and SAIGA
// scoring workers call concurrently), so implementations must be safe
// for concurrent use. It runs at most once per observeGap of run time, on
// the hot path's goroutine — keep it cheap.
type CheckpointFunc func(nodes int64, elapsed time.Duration)

// New builds a budget from ctx (may be nil) and limits, starting its clock
// now. A context deadline earlier than limits.Timeout wins.
func New(ctx context.Context, l Limits) *B {
	b := &B{ctx: ctx, maxNodes: l.MaxNodes, checkEvery: l.CheckEvery, start: time.Now()}
	if b.checkEvery <= 0 {
		b.checkEvery = 256
	}
	b.lastObs.Store(-int64(observeGap)) // the first round is never paced away
	if l.Timeout > 0 {
		b.deadline = b.start.Add(l.Timeout)
	}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || d.Before(b.deadline)) {
			b.deadline = d
		}
	}
	return b
}

// Member returns an attributed view of b, one per portfolio member. The
// view enforces the same limits and shares the
// same stop latch, clock and checkpoint observers as b, but Nodes() on the
// view returns only the work ticked *through the view*. Ticks through a view
// still count against the root's global budget, so the per-member counts of
// all views plus any direct root ticks sum exactly to the root's Nodes().
// Member of a member attaches to the same root (views do not nest); Member
// of a nil budget is nil (unlimited, unattributed).
func (b *B) Member() *B {
	if b == nil {
		return nil
	}
	return &B{parent: b.root()}
}

// root resolves the budget whose limits and counters govern this one:
// itself for a root budget, the shared root for a member view.
func (b *B) root() *B {
	if b.parent != nil {
		return b.parent
	}
	return b
}

// Tick counts one unit of work and reports whether the run may continue.
// Every checkEvery-th tick is also a Check checkpoint. On a member view the
// tick lands on both the view's attributed counter and the root's global
// counter — unconditionally paired once past the stopped gate, which is what
// makes the conservation invariant exact rather than approximate (a stop
// racing in between still sees both increments).
func (b *B) Tick() bool {
	if b == nil {
		return true
	}
	if p := b.parent; p != nil {
		if p.stopped.Load() {
			return false
		}
		b.nodes.Add(1)
		n := p.nodes.Add(1)
		if p.maxNodes > 0 && n > p.maxNodes {
			p.Stop(StopNodes)
			return false
		}
		if n%p.checkEvery == 0 {
			return p.Check()
		}
		return true
	}
	if b.stopped.Load() {
		return false
	}
	n := b.nodes.Add(1)
	if b.maxNodes > 0 && n > b.maxNodes {
		b.Stop(StopNodes)
		return false
	}
	if n%b.checkEvery == 0 {
		return b.Check()
	}
	return true
}

// Check is a cooperative checkpoint: it polls the context and the deadline
// without counting work, and reports whether the run may continue. A passing
// checkpoint also runs the observers, when observeGap of run time has passed
// since their last round.
func (b *B) Check() bool {
	if b == nil {
		return true
	}
	if b.parent != nil {
		return b.parent.Check()
	}
	faultinject.Hit(faultinject.SiteCheckpoint)
	if b.stopped.Load() {
		return false
	}
	if b.ctx != nil {
		select {
		case <-b.ctx.Done():
			b.Stop(StopCanceled)
			return false
		default:
		}
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		b.Stop(StopDeadline)
		return false
	}
	if obs := b.onCheck.Load(); obs != nil {
		el := time.Since(b.start)
		if last := b.lastObs.Load(); el-time.Duration(last) >= observeGap &&
			b.lastObs.CompareAndSwap(last, int64(el)) {
			n := b.nodes.Load()
			for _, fn := range *obs {
				fn(n, el)
			}
		}
	}
	return true
}

// OnCheckpoint adds fn to the budget's checkpoint observers (nil removes
// them all). Observers accumulate rather than replace: a portfolio run
// shares one budget across concurrent solvers, each installing its own
// instrumentation hook. All observers fire together in one round, on the
// first passing checkpoint and then on the first one at least observeGap of
// run time after the previous round. Installation is safe while workers are
// already checkpointing.
func (b *B) OnCheckpoint(fn CheckpointFunc) {
	if b == nil {
		return
	}
	if p := b.parent; p != nil {
		// A member view installs onto the shared root, re-basing the reported
		// node count to the member's attributed share — the observer sees the
		// member's cost, not the portfolio's. Clearing (fn == nil) is a
		// root-level operation: a member must not be able to wipe its
		// siblings' observers, so nil is a no-op here.
		if fn == nil {
			return
		}
		view := b
		p.OnCheckpoint(func(_ int64, elapsed time.Duration) {
			fn(view.nodes.Load(), elapsed)
		})
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if fn == nil {
		b.onCheck.Store(nil)
		return
	}
	var cur []CheckpointFunc
	if p := b.onCheck.Load(); p != nil {
		cur = *p
	}
	next := make([]CheckpointFunc, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = fn
	b.onCheck.Store(&next)
}

// Stop marks the budget stopped with the given reason. The first reason
// wins; later calls only keep the stopped flag set.
func (b *B) Stop(r StopReason) {
	if b == nil {
		return
	}
	if b.parent != nil {
		b.parent.Stop(r)
		return
	}
	b.mu.Lock()
	if b.reason == StopNone {
		b.reason = r
	}
	b.mu.Unlock()
	b.stopped.Store(true)
}

// Stopped reports whether any limit tripped (or Stop was called).
func (b *B) Stopped() bool { return b != nil && b.root().stopped.Load() }

// Reason returns why the budget stopped, or StopNone while it is live.
func (b *B) Reason() StopReason {
	if b == nil {
		return StopNone
	}
	r := b.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reason
}

// Nodes returns the number of work units ticked so far: the global total on
// a root budget, the view's attributed share on a member view.
func (b *B) Nodes() int64 {
	if b == nil {
		return 0
	}
	return b.nodes.Load()
}

// Elapsed returns the wall-clock time since New.
func (b *B) Elapsed() time.Duration {
	if b == nil {
		return 0
	}
	return time.Since(b.root().start)
}

// StartTime returns the instant the budget's clock started. Instrumentation
// emitters with their own clocks (the cover engine's sampled snapshots) pin
// themselves to it so every event in a trace shares one time base; a nil
// budget starts now.
func (b *B) StartTime() time.Time {
	if b == nil {
		return time.Now()
	}
	return b.root().start
}

// PanicError is the typed error a contained panic converts into: the
// recovered value plus the stack of the panicking goroutine, so one bad
// instance in a batch run surfaces as a diagnosable error instead of
// killing the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// AsPanicError wraps a recovered value, capturing the current goroutine's
// stack. A value that already is a *PanicError passes through unchanged, so
// a panic forwarded across goroutines (parallel workers) keeps the stack of
// the goroutine that actually panicked.
func AsPanicError(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	buf := make([]byte, 64<<10)
	return &PanicError{Value: v, Stack: buf[:runtime.Stack(buf, false)]}
}

// Guard runs fn with a panic barrier: a panic inside fn is recovered,
// converted to a *PanicError, and returned as the error, with b marked
// stopped (StopPanic). Batch runners rely on this so a single exploding
// instance cannot take down the whole run.
func Guard(b *B, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b.Stop(StopPanic)
			err = AsPanicError(r)
		}
	}()
	return fn()
}
