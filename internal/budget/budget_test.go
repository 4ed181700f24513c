package budget

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *B
	if !b.Tick() || !b.Check() {
		t.Fatal("nil budget must allow work")
	}
	if b.Stopped() {
		t.Fatal("nil budget must not report stopped")
	}
	if b.Reason() != StopNone {
		t.Fatalf("nil budget reason = %q", b.Reason())
	}
	if b.Nodes() != 0 || b.Elapsed() != 0 {
		t.Fatal("nil budget must report zero effort")
	}
	b.Stop(StopCanceled) // must not panic
}

func TestNodeBudget(t *testing.T) {
	b := New(nil, Limits{MaxNodes: 10})
	ticks := 0
	for b.Tick() {
		ticks++
		if ticks > 100 {
			t.Fatal("node budget never tripped")
		}
	}
	if ticks != 10 {
		t.Fatalf("got %d ticks within a 10-node budget", ticks)
	}
	if b.Reason() != StopNodes {
		t.Fatalf("reason = %q, want %q", b.Reason(), StopNodes)
	}
	if !b.Stopped() {
		t.Fatal("budget must report stopped")
	}
	if b.Tick() {
		t.Fatal("a stopped budget must refuse further work")
	}
}

func TestDeadline(t *testing.T) {
	b := New(nil, Limits{Timeout: time.Millisecond, CheckEvery: 1})
	time.Sleep(5 * time.Millisecond)
	if b.Tick() {
		t.Fatal("tick after the deadline must fail")
	}
	if b.Reason() != StopDeadline {
		t.Fatalf("reason = %q, want %q", b.Reason(), StopDeadline)
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{CheckEvery: 1})
	if !b.Tick() {
		t.Fatal("tick before cancel must succeed")
	}
	cancel()
	if b.Tick() {
		t.Fatal("tick after cancel must fail")
	}
	if b.Reason() != StopCanceled {
		t.Fatalf("reason = %q, want %q", b.Reason(), StopCanceled)
	}
}

func TestContextDeadlineMergesWithTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	b := New(ctx, Limits{Timeout: time.Hour, CheckEvery: 1})
	time.Sleep(5 * time.Millisecond)
	if b.Tick() {
		t.Fatal("tick after the (earlier) context deadline must fail")
	}
	if r := b.Reason(); r != StopCanceled && r != StopDeadline {
		t.Fatalf("reason = %q, want canceled or deadline", r)
	}
}

// Observer rounds are paced by run time, not by checkpoint count: with a
// checkpoint at every tick, 200,000 ticks from four goroutines fire the
// observers at least once (the first checkpoint always does) and at most
// once per observeGap of elapsed run time. The limit polls keep their
// CheckEvery cadence: a canceled context and an expired deadline still stop
// the budget at the next checkpoint, however recent the last round.
func TestObserversPacedByRunTime(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := New(ctx, Limits{CheckEvery: 1})
	var rounds atomic.Int64
	b.OnCheckpoint(func(int64, time.Duration) { rounds.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50_000; i++ {
				if !b.Tick() {
					t.Error("live budget refused a tick")
					return
				}
			}
		}()
	}
	wg.Wait()
	el := b.Elapsed()
	if n, most := rounds.Load(), int64(el/observeGap)+1; n < 1 || n > most {
		t.Fatalf("%d observer rounds in %v of run time, want 1..%d", n, el, most)
	}
	cancel()
	if b.Tick() || b.Reason() != StopCanceled {
		t.Fatalf("canceled context not seen at the next checkpoint (reason %q)", b.Reason())
	}

	// The deadline half needs its first tick to land before a 200 µs
	// deadline; a goroutine preempted past it retries on a fresh budget.
	for attempt := 1; ; attempt++ {
		d := New(nil, Limits{Timeout: 200 * time.Microsecond, CheckEvery: 1})
		d.OnCheckpoint(func(int64, time.Duration) {})
		if !d.Tick() {
			if attempt == 10 {
				t.Skip("every attempt was preempted past the deadline before its first tick")
			}
			continue
		}
		time.Sleep(300 * time.Microsecond)
		if d.Tick() || d.Reason() != StopDeadline {
			t.Fatalf("expired deadline not seen at the next checkpoint (reason %q)", d.Reason())
		}
		return
	}
}

func TestFirstReasonWins(t *testing.T) {
	b := New(nil, Limits{})
	b.Stop(StopNodes)
	b.Stop(StopDeadline)
	if b.Reason() != StopNodes {
		t.Fatalf("reason = %q, want the first stop to win", b.Reason())
	}
}

func TestCheckEveryDefaults(t *testing.T) {
	// With the default checkpoint stride, deadline trips are only observed
	// at multiples of 256 ticks — but a node budget trips exactly.
	b := New(nil, Limits{MaxNodes: 3})
	for i := 0; i < 3; i++ {
		if !b.Tick() {
			t.Fatalf("tick %d failed before the budget", i)
		}
	}
	if b.Tick() {
		t.Fatal("4th tick must fail")
	}
}

func TestGuardContainsPanic(t *testing.T) {
	b := New(nil, Limits{})
	err := Guard(b, func() error {
		panic("kaboom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Guard returned %T, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "budget") {
		t.Fatal("panic stack missing or implausible")
	}
	if b.Reason() != StopPanic {
		t.Fatalf("reason = %q, want %q", b.Reason(), StopPanic)
	}
}

func TestGuardPassesThroughErrors(t *testing.T) {
	b := New(nil, Limits{})
	sentinel := errors.New("boom")
	if err := Guard(b, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Guard returned %v, want sentinel", err)
	}
	if err := Guard(b, func() error { return nil }); err != nil {
		t.Fatalf("Guard returned %v, want nil", err)
	}
	if b.Stopped() {
		t.Fatal("non-panicking Guard must not stop the budget")
	}
}

func TestAsPanicErrorPassthrough(t *testing.T) {
	orig := AsPanicError("first")
	again := AsPanicError(orig)
	if again != orig {
		t.Fatal("an existing *PanicError must pass through unchanged (stack preservation)")
	}
}

func TestMemberConservation(t *testing.T) {
	b := New(nil, Limits{MaxNodes: 10_000, CheckEvery: 64})
	members := make([]*B, 4)
	for i := range members {
		members[i] = b.Member()
	}
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *B) {
			defer wg.Done()
			for m.Tick() {
			}
		}(m)
	}
	wg.Wait()
	var sum int64
	for _, m := range members {
		sum += m.Nodes()
	}
	if sum != b.Nodes() {
		t.Fatalf("member node counts sum to %d, global Nodes() = %d", sum, b.Nodes())
	}
	if b.Reason() != StopNodes {
		t.Fatalf("reason = %q, want %q", b.Reason(), StopNodes)
	}
	for _, m := range members {
		if !m.Stopped() {
			t.Fatal("member view must see the shared stop latch")
		}
		if m.Reason() != StopNodes {
			t.Fatalf("member reason = %q, want %q", m.Reason(), StopNodes)
		}
	}
}

func TestMemberEnforcesSharedLimits(t *testing.T) {
	b := New(nil, Limits{MaxNodes: 10})
	m1, m2 := b.Member(), b.Member()
	ticks := 0
	for i := 0; i < 100; i++ {
		m := m1
		if i%2 == 1 {
			m = m2
		}
		if !m.Tick() {
			break
		}
		ticks++
	}
	if ticks != 10 {
		t.Fatalf("got %d ticks across members within a 10-node budget", ticks)
	}
	if m1.Nodes()+m2.Nodes() != b.Nodes() {
		t.Fatalf("conservation broke: %d + %d != %d", m1.Nodes(), m2.Nodes(), b.Nodes())
	}
	// A member's Stop trips the shared latch.
	b2 := New(nil, Limits{})
	v := b2.Member()
	v.Stop(StopCanceled)
	if !b2.Stopped() || b2.Reason() != StopCanceled {
		t.Fatal("member Stop must latch the root")
	}
	if v.Tick() {
		t.Fatal("member of a stopped root must refuse work")
	}
}

func TestMemberCheckpointReportsAttributedNodes(t *testing.T) {
	b := New(nil, Limits{CheckEvery: 8})
	m := b.Member()
	// Seed the root with unattributed ticks so global != member count.
	for i := 0; i < 5; i++ {
		b.Tick()
	}
	var seen []int64
	m.OnCheckpoint(func(nodes int64, _ time.Duration) {
		seen = append(seen, nodes)
	})
	m.OnCheckpoint(nil) // must be a no-op on a view, not clear the root
	for i := 0; i < 32; i++ {
		m.Tick()
	}
	if len(seen) == 0 {
		t.Fatal("member checkpoint observer never fired")
	}
	for _, n := range seen {
		if n > m.Nodes() || n <= 0 {
			t.Fatalf("observer saw %d nodes, member ticked %d", n, m.Nodes())
		}
	}
	if b.Nodes() != m.Nodes()+5 {
		t.Fatalf("global %d != member %d + 5 seed ticks", b.Nodes(), m.Nodes())
	}
	// Member of a member attaches to the root, not a chain.
	mm := m.Member()
	mm.Tick()
	if b.Nodes() != m.Nodes()+mm.Nodes()+5 {
		t.Fatal("nested Member must attach to the root")
	}
	// Member of nil stays nil-safe.
	var nilB *B
	if nilB.Member() != nil {
		t.Fatal("Member of a nil budget must be nil")
	}
}
