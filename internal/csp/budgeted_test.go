package csp

import (
	"context"
	"errors"
	"testing"

	"hypertree/internal/budget"
	"hypertree/internal/decomp"
)

// A tiny node budget must trip the bag enumeration behind TDTables with a
// typed *InterruptedError carrying the node-budget reason, and no partial
// table may escape.
func TestBagTableBudgetTripsOnNodeBudget(t *testing.T) {
	domain := make([]Value, 10)
	for i := range domain {
		domain[i] = Value(i)
	}
	c := New(8, domain) // 10^8 candidate walk, budget allows 50 ticks
	td := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	bu := budget.New(context.Background(), budget.Limits{MaxNodes: 50, CheckEvery: 1})
	tables, err := TDTables(c, td, bu)
	if tables != nil {
		t.Fatalf("TDTables returned partial tables: %d", len(tables))
	}
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("TDTables error = %v, want *InterruptedError", err)
	}
	if ie.Reason != budget.StopNodes {
		t.Fatalf("Reason = %q, want %q", ie.Reason, budget.StopNodes)
	}
}

// A pre-canceled context must trip JoinProject, joining or only projecting,
// with the cancellation reason — this is the path the server leans on for
// client disconnects and drain.
func TestBudgetedOpsHonorContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bu := budget.New(ctx, budget.Limits{CheckEvery: 1})

	big := &Table{Vars: []int{0}}
	for i := 0; i < 64; i++ {
		big.Rows = append(big.Rows, []Value{Value(i)})
	}
	if _, err := JoinProject(big, big, []int{0}, bu); err == nil {
		t.Fatal("JoinProject (join) ran to completion under a canceled context")
	}
	_, err := JoinProject(big, identity(), []int{0}, bu)
	var ie *InterruptedError
	if !errors.As(err, &ie) || ie.Reason != budget.StopCanceled {
		t.Fatalf("JoinProject (project) error = %v, want *InterruptedError(canceled)", err)
	}
}

// JoinProject's per-joined-row ticks must bound multiplicative blowups: two
// 64-row tables sharing no variables produce 4096 output rows, far above
// the 200-tick budget, so the join must abandon rather than materialize.
func TestJoinBudgetBoundsOutput(t *testing.T) {
	a := &Table{Vars: []int{0}}
	b := &Table{Vars: []int{1}}
	for i := 0; i < 64; i++ {
		a.Rows = append(a.Rows, []Value{Value(i)})
		b.Rows = append(b.Rows, []Value{Value(i)})
	}
	bu := budget.New(context.Background(), budget.Limits{MaxNodes: 200, CheckEvery: 1})
	if _, err := JoinProject(a, b, []int{0, 1}, bu); err == nil {
		t.Fatal("JoinProject materialized a cross product past its node budget")
	}
}
