package engine

import (
	"fmt"

	"hypertree/internal/budget"
	"hypertree/internal/csp"
)

// Pin is a per-query unary assignment: variable Var must take value Val.
// Pins are residual filters applied to each candidate row — the plan itself
// is never touched. A query with pins answers exactly what the reference
// solvers answer on a CSP copy whose pinned domains are restricted to the
// pinned value ({Val} if Val is in the domain, {} otherwise).
type Pin struct {
	Var int
	Val csp.Value
}

// Cursor holds all mutable per-query state for one goroutine. Any number of
// cursors can query the same Plan concurrently with zero synchronization; a
// single cursor must not be shared. All scratch is allocated once in
// NewCursor, so the Solve and Count paths allocate nothing per query.
type Cursor struct {
	p *Plan

	// epoch stamps replace O(n) clearing between queries: a slot is live in
	// this query iff its stamp equals the current epoch.
	epoch    uint32
	pinEpoch []uint32 // per variable: pinned this query?
	pinVal   []csp.Value
	liveEp   []uint32 // per (node,row): subtree support proven
	deadEp   []uint32 // per (node,row): subtree support refuted
	choice   []int32  // per node: currently chosen row
	counts   []int    // per (node,row): Count DP scratch
	countOv  []bool   // per (node,row): Count DP saturated below this row
	result   []csp.Value
}

// NewCursor allocates a query cursor for the plan.
func (p *Plan) NewCursor() *Cursor {
	return &Cursor{
		p:        p,
		pinEpoch: make([]uint32, p.numVars),
		pinVal:   make([]csp.Value, p.numVars),
		liveEp:   make([]uint32, p.rowsTot),
		deadEp:   make([]uint32, p.rowsTot),
		choice:   make([]int32, len(p.nodes)),
		counts:   make([]int, p.rowsTot),
		countOv:  make([]bool, p.rowsTot),
		result:   make([]csp.Value, p.numVars),
	}
}

// begin starts a query: bumps the epoch and stamps the pins. It returns
// false if some pin is invalid — value outside the variable's domain, or two
// pins on one variable disagreeing — which makes every query unsatisfiable.
func (cu *Cursor) begin(pins []Pin) bool {
	cu.epoch++
	if cu.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clearU32(cu.pinEpoch)
		clearU32(cu.liveEp)
		clearU32(cu.deadEp)
		cu.epoch = 1
	}
	ok := true
	for _, pin := range pins {
		if pin.Var < 0 || pin.Var >= cu.p.numVars {
			panic(fmt.Sprintf("engine: pin on variable %d out of range", pin.Var))
		}
		if cu.pinEpoch[pin.Var] == cu.epoch && cu.pinVal[pin.Var] != pin.Val {
			ok = false // conflicting duplicate pins: empty restricted domain
		}
		cu.pinEpoch[pin.Var] = cu.epoch
		cu.pinVal[pin.Var] = pin.Val
		if !valueIn(cu.p.domains[pin.Var], pin.Val) {
			ok = false
		}
	}
	return ok
}

func (cu *Cursor) pinned(v int) bool { return cu.pinEpoch[v] == cu.epoch }

// rowOK reports whether row r of nd satisfies every pin on the node's
// variables — the residual filter applied to every candidate row.
func (cu *Cursor) rowOK(nd *node, r int32) bool {
	row := nd.row(r)
	for i, v := range nd.vars {
		if cu.pinEpoch[v] == cu.epoch && row[i] != cu.pinVal[v] {
			return false
		}
	}
	return true
}

// support reports whether row r of node k extends to a pin-respecting
// assignment of k's whole subtree. The answer depends only on (k, r) and
// the query's pins — a subtree sees the outside world only through its own
// row — so it is memoized per query via epoch stamps: each (node,row) is
// decided at most once, keeping parameterized Solve polynomial.
func (cu *Cursor) support(k, r int32) bool {
	off := cu.p.rowOff[k] + r
	if cu.liveEp[off] == cu.epoch {
		return true
	}
	if cu.deadEp[off] == cu.epoch {
		return false
	}
	ok := true
	for _, ch := range cu.p.nodes[k].children {
		cn := &cu.p.nodes[ch]
		found := false
		for _, rr := range cn.rowsFor(r) {
			if cu.rowOK(cn, rr) && cu.support(ch, rr) {
				found = true
				break
			}
		}
		if !found {
			ok = false
			break
		}
	}
	if ok {
		cu.liveEp[off] = cu.epoch
	} else {
		cu.deadEp[off] = cu.epoch
	}
	return ok
}

// Solve returns a complete consistent assignment respecting the pins, or
// (nil, false). The returned slice is owned by the cursor and overwritten by
// the next call — copy it to retain it. Semantics match csp.SolveFromTD on
// the pin-restricted CSP exactly, including which assignment is returned:
// at every node (in top-down order) the first supported candidate
// compatible with the parent's chosen row is taken, which is precisely the
// reference's rows[0] pick on its pin-aware reduced tables.
func (cu *Cursor) Solve(pins []Pin) ([]csp.Value, bool) {
	p := cu.p
	if len(pins) == 0 {
		if p.solution == nil {
			return nil, false
		}
		copy(cu.result, p.solution)
		return cu.result, true
	}
	if !cu.begin(pins) {
		return nil, false
	}
	return cu.solve()
}

// solve is the top-down walk behind Solve, for the pins begin stamped.
func (cu *Cursor) solve() ([]csp.Value, bool) {
	p := cu.p
	if p.tablesEmpty || p.emptyFreeDom {
		return nil, false
	}
	for k := range p.nodes {
		nd := &p.nodes[k]
		chosen := int32(-1)
		if nd.parent < 0 {
			for r := int32(0); r < nd.nrows; r++ {
				if cu.rowOK(nd, r) && cu.support(int32(k), r) {
					chosen = r
					break
				}
			}
		} else {
			for _, r := range nd.rowsFor(cu.choice[nd.parent]) {
				if cu.rowOK(nd, r) && cu.support(int32(k), r) {
					chosen = r
					break
				}
			}
		}
		if chosen < 0 {
			// Only reachable at the root: a supported parent row guarantees
			// a supported compatible row in every child.
			return nil, false
		}
		cu.choice[k] = chosen
		row := nd.row(chosen)
		for i, v := range nd.vars {
			cu.result[v] = row[i]
		}
	}
	for _, v := range p.free {
		if cu.pinned(v) {
			cu.result[v] = cu.pinVal[v]
		} else {
			cu.result[v] = p.domains[v][0]
		}
	}
	return cu.result, true
}

// Count returns the number of complete consistent assignments respecting
// the pins (csp.CountFromTD semantics on the pin-restricted CSP: free
// variables contribute a |restricted domain| factor). Counts too large for
// an int saturate at math.MaxInt instead of wrapping; use CountExact to
// detect saturation.
func (cu *Cursor) Count(pins []Pin) int {
	n, _ := cu.CountExact(pins)
	return n
}

// CountExact is Count plus an exactness bit: exact is false when the DP
// saturated at math.MaxInt on the way to the answer, making count a
// saturated lower bound rather than the true (int-overflowing) value.
func (cu *Cursor) CountExact(pins []Pin) (count int, exact bool) {
	p := cu.p
	if len(pins) == 0 {
		return p.total, !p.totalOv
	}
	if !cu.begin(pins) {
		return 0, true
	}
	count, exact, _ = cu.count(nil) // no budget, so never interrupted
	return count, exact
}

// count is the count DP behind CountExact, for the pins begin stamped:
// counts[row] is the number of extensions of the row into its subtree, and
// the answer is the root sum times a |domain| factor per unpinned free
// variable. ovRows marks rows whose count saturated somewhere below, so the
// answer carries an honest "lower bound only" flag. bu (nil = unbounded) is
// ticked per compatible child row visited: build passes the compile budget,
// queries pass nil, and the nil guard keeps their loop free of calls.
func (cu *Cursor) count(bu *budget.B) (count int, exact bool, err error) {
	p := cu.p
	if p.tablesEmpty {
		return 0, true, nil
	}
	counts, ovRows := cu.counts, cu.countOv
	for k := len(p.nodes) - 1; k >= 0; k-- {
		nd := &p.nodes[k]
		off := p.rowOff[k]
		for r := int32(0); r < nd.nrows; r++ {
			if !cu.rowOK(nd, r) {
				counts[off+r] = 0
				ovRows[off+r] = false
				continue
			}
			total, tOv := 1, false
			for _, ch := range nd.children {
				coff := p.rowOff[ch]
				sub, sOv := 0, false
				for _, rr := range p.nodes[ch].rowsFor(r) {
					if bu != nil && !bu.Tick() {
						return 0, false, csp.Interrupted(bu)
					}
					var o bool
					sub, o = csp.SatAdd(sub, counts[coff+rr])
					sOv = sOv || o || ovRows[coff+rr]
				}
				var o bool
				total, o = csp.SatMul(total, sub)
				tOv = tOv || o
				if total == 0 {
					// Exactly zero extensions, whatever saturated elsewhere.
					tOv = false
					break
				}
				tOv = tOv || sOv
			}
			counts[off+r] = total
			ovRows[off+r] = tOv
		}
	}
	sum, sumOv := 0, false
	for r := int32(0); r < p.nodes[0].nrows; r++ {
		var o bool
		sum, o = csp.SatAdd(sum, counts[r])
		sumOv = sumOv || o || ovRows[r]
	}
	for _, v := range p.free {
		if sum == 0 {
			break
		}
		if !cu.pinned(v) {
			var o bool
			sum, o = csp.SatMul(sum, len(p.domains[v]))
			sumOv = sumOv || o
		}
	}
	if sum == 0 {
		sumOv = false
	}
	return sum, !sumOv, nil
}

// EnumerateFunc streams up to limit (limit <= 0: all) complete consistent
// assignments respecting the pins, in exactly the order csp.EnumerateFromTD
// produces them on the pin-restricted CSP. The slice passed to fn is owned
// by the cursor and reused — copy it to retain it. fn returning false stops
// the enumeration early.
func (cu *Cursor) EnumerateFunc(limit int, pins []Pin, fn func(sol []csp.Value) bool) {
	p := cu.p
	if !cu.begin(pins) || p.tablesEmpty || len(p.nodes) == 0 {
		return
	}
	for v := 0; v < p.numVars; v++ {
		// Unconstrained defaults: the first value of the restricted domain.
		if cu.pinned(v) {
			cu.result[v] = cu.pinVal[v]
		} else {
			if len(p.domains[v]) == 0 {
				return // reference bails out when any domain is empty
			}
			cu.result[v] = p.domains[v][0]
		}
	}
	emitted := 0
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(p.nodes) {
			if !fn(cu.result) {
				return false
			}
			emitted++
			return limit <= 0 || emitted < limit
		}
		nd := &p.nodes[k]
		if nd.parent < 0 {
			for r := int32(0); r < nd.nrows; r++ {
				if !cu.rowOK(nd, r) || !cu.support(int32(k), r) {
					continue
				}
				cu.choice[k] = r
				row := nd.row(r)
				for i, v := range nd.vars {
					cu.result[v] = row[i]
				}
				if !rec(k + 1) {
					return false
				}
			}
			return true
		}
		for _, r := range nd.rowsFor(cu.choice[nd.parent]) {
			if !cu.rowOK(nd, r) || !cu.support(int32(k), r) {
				continue
			}
			cu.choice[k] = r
			row := nd.row(r)
			for i, v := range nd.vars {
				cu.result[v] = row[i]
			}
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// Enumerate collects EnumerateFunc's stream into fresh slices. A nil result
// means no assignments (matching the reference's nil returns).
func (cu *Cursor) Enumerate(limit int, pins []Pin) [][]csp.Value {
	var out [][]csp.Value
	cu.EnumerateFunc(limit, pins, func(sol []csp.Value) bool {
		out = append(out, append([]csp.Value(nil), sol...))
		return true
	})
	return out
}

func valueIn(domain []csp.Value, x csp.Value) bool {
	for _, d := range domain {
		if d == x {
			return true
		}
	}
	return false
}

func clearU32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}
