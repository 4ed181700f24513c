package engine

import (
	"fmt"

	"hypertree/internal/budget"
	"hypertree/internal/csp"
)

// Pin is a per-query unary assignment: variable Var must take value Val.
// A pin is a residual filter on the candidate rows of the variable's top
// node, the first node whose bag holds it; the plan itself is never
// touched. The other nodes holding the variable lie below the top node and
// share it with their parents, so their compatible rows agree with the
// filtered ones. A subtree that holds no top node of a pinned variable
// answers from the plan's compiled pin-free counts.
//
// A query with pins answers the CSP copy whose pinned domains are
// restricted to the pinned value ({Val} if Val is in the domain, {}
// otherwise). On a plan compiled from a tree decomposition it answers
// exactly what the reference solvers answer on that copy, solutions and
// enumeration order included. On a GHD plan, satisfiability and counts are
// exact, and Solve and Enumerate return the copy's first solutions in the
// plan's own row order. csp.SolveFromGHD on the copy may pick another
// solution, because it builds other tables: a λ-join may use a pinned
// variable that its bag projects away, and projection keeps first
// occurrences.
type Pin struct {
	Var int
	Val csp.Value
}

// Cursor holds all mutable per-query state for one goroutine. Any number of
// cursors can query the same Plan concurrently with zero synchronization; a
// single cursor must not be shared. All scratch is allocated once in
// NewCursor, so the Solve and CountExact paths allocate nothing per query. A
// query revisits only the nodes its pins reach: the pinned variables' top
// nodes and their ancestors.
type Cursor struct {
	p *Plan

	// epoch stamps replace O(n) clearing between queries: a slot is live in
	// this query iff its stamp equals the current epoch.
	epoch    uint32
	pinEpoch []uint32 // per variable: pinned this query?
	pinVal   []csp.Value
	filterEp []uint32 // per node: the pins filter its rows (it is some pinned variable's top)
	reachEp  []uint32 // per node: a filtered node is in its subtree
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
		filterEp: make([]uint32, len(p.nodes)),
		reachEp:  make([]uint32, len(p.nodes)),
		liveEp:   make([]uint32, p.rowsTot),
		deadEp:   make([]uint32, p.rowsTot),
		choice:   make([]int32, len(p.nodes)),
		counts:   make([]int, p.rowsTot),
		countOv:  make([]bool, p.rowsTot),
		result:   make([]csp.Value, p.numVars),
	}
}

// begin starts a query: bumps the epoch and stamps the pins, each pinned
// variable's top node as filtered, and the filtered nodes and their
// ancestors as reached (walking parents up to the first node already
// reached, whose ancestors are reached too). It returns false if some pin
// is invalid — value outside the variable's domain, or two pins on one
// variable disagreeing — which makes every query unsatisfiable.
func (cu *Cursor) begin(pins []Pin) bool {
	cu.epoch++
	if cu.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clearU32(cu.pinEpoch)
		clearU32(cu.filterEp)
		clearU32(cu.reachEp)
		clearU32(cu.liveEp)
		clearU32(cu.deadEp)
		cu.epoch = 1
	}
	p := cu.p
	ok := true
	for _, pin := range pins {
		if pin.Var < 0 || pin.Var >= p.numVars {
			panic(fmt.Sprintf("engine: pin on variable %d out of range", pin.Var))
		}
		if cu.pinEpoch[pin.Var] == cu.epoch && cu.pinVal[pin.Var] != pin.Val {
			ok = false // conflicting duplicate pins: empty restricted domain
		}
		cu.pinEpoch[pin.Var] = cu.epoch
		cu.pinVal[pin.Var] = pin.Val
		if !valueIn(p.domains[pin.Var], pin.Val) {
			ok = false
		}
		if p.tablesEmpty {
			continue // no nodes, and no index of them
		}
		if k := p.top[pin.Var]; k >= 0 {
			cu.filterEp[k] = cu.epoch
			for a := k; a >= 0 && cu.reachEp[a] != cu.epoch; a = p.nodes[a].parent {
				cu.reachEp[a] = cu.epoch
			}
		}
	}
	return ok
}

func (cu *Cursor) pinned(v int) bool { return cu.pinEpoch[v] == cu.epoch }

// reached reports whether node k's subtree holds a filtered node. A
// subtree no pin reaches answers as it does pin-free: after full reduction
// every one of its rows extends into the subtree, and its counts are the
// plan's.
func (cu *Cursor) reached(k int32) bool { return cu.reachEp[k] == cu.epoch }

// rowOK reports whether row r of nd satisfies every pin on the node's
// variables — the residual filter applied to every candidate row of a
// filtered node.
func (cu *Cursor) rowOK(nd *node, r int32) bool {
	row := nd.row(r)
	for i, v := range nd.vars {
		if cu.pinEpoch[v] == cu.epoch && row[i] != cu.pinVal[v] {
			return false
		}
	}
	return true
}

// candidate reports whether row r of node k can be chosen under the pins:
// it passes the pin filter, if k is filtered, and it extends into k's
// subtree.
func (cu *Cursor) candidate(k, r int32) bool {
	if cu.filterEp[k] == cu.epoch && !cu.rowOK(&cu.p.nodes[k], r) {
		return false
	}
	return cu.support(k, r)
}

// support reports whether row r of node k extends to a pin-respecting
// assignment of k's whole subtree: always, when no pin reaches the
// subtree. Otherwise the answer depends only on (k, r) and the query's
// pins — a subtree sees the outside world only through its own row — so it
// is memoized per query via epoch stamps: each (node,row) is decided at
// most once, keeping parameterized Solve polynomial.
func (cu *Cursor) support(k, r int32) bool {
	if !cu.reached(k) {
		return true
	}
	off := cu.p.rowOff[k] + r
	if cu.liveEp[off] == cu.epoch {
		return true
	}
	if cu.deadEp[off] == cu.epoch {
		return false
	}
	ok := true
	for _, ch := range cu.p.nodes[k].children {
		if !cu.reached(ch) {
			continue // every row of the nonempty group extends
		}
		found := false
		for _, rr := range cu.p.nodes[ch].rowsFor(r) {
			if cu.candidate(ch, rr) {
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
// the next call — copy it to retain it. On a tree-decomposition plan,
// semantics match csp.SolveFromTD on the pin-restricted CSP exactly,
// including which assignment is returned: at every node (in top-down
// order) the first supported candidate compatible with the parent's chosen
// row is taken, which is precisely the reference's rows[0] pick on its
// pin-aware reduced tables (see Pin for GHD plans).
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
				if cu.candidate(int32(k), r) {
					chosen = r
					break
				}
			}
		} else {
			for _, r := range nd.rowsFor(cu.choice[nd.parent]) {
				if cu.candidate(int32(k), r) {
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

// CountExact returns the number of complete consistent assignments
// respecting the pins (csp.CountFromTD semantics on the pin-restricted CSP:
// free variables contribute a |restricted domain| factor). Counts too large
// for an int saturate at math.MaxInt instead of wrapping: exact is false
// when the DP saturated on the way to the answer, making count a saturated
// lower bound rather than the true (int-overflowing) value.
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
// answer carries an honest "lower bound only" flag. The DP runs only on the
// nodes a pin reaches, reads the plan's pin-free counts for every other
// child, and filters rows only on the filtered nodes. bu (nil = unbounded)
// is ticked per compatible child row visited: build passes the compile
// budget, queries pass nil, and the nil guard keeps their loop free of
// calls.
func (cu *Cursor) count(bu *budget.B) (count int, exact bool, err error) {
	p := cu.p
	if p.tablesEmpty {
		return 0, true, nil
	}
	for k := int32(len(p.nodes) - 1); k >= 0; k-- {
		if !cu.reached(k) {
			continue
		}
		nd := &p.nodes[k]
		off := p.rowOff[k]
		filtered := cu.filterEp[k] == cu.epoch
		for r := int32(0); r < nd.nrows; r++ {
			if filtered && !cu.rowOK(nd, r) {
				cu.counts[off+r] = 0
				cu.countOv[off+r] = false
				continue
			}
			total, tOv := 1, false
			for _, ch := range nd.children {
				counts, ovRows := cu.rowCounts(ch)
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
			cu.counts[off+r] = total
			cu.countOv[off+r] = tOv
		}
	}
	counts, ovRows := cu.rowCounts(0)
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

// rowCounts returns the per-(node,row) counts and overflow flags node k's
// rows hold this query: the query's own DP where a pin reaches k's
// subtree, the plan's pin-free ones elsewhere.
func (cu *Cursor) rowCounts(k int32) ([]int, []bool) {
	if cu.reached(k) {
		return cu.counts, cu.countOv
	}
	return cu.p.sub, cu.p.subOv
}

// EnumerateFunc streams up to limit (limit <= 0: all) complete consistent
// assignments respecting the pins, on a tree-decomposition plan in exactly
// the order csp.EnumerateFromTD produces them on the pin-restricted CSP
// (see Pin for GHD plans). The slice passed to fn is owned by the cursor
// and reused — copy it to retain it. fn returning false stops the
// enumeration early.
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
				if !cu.candidate(int32(k), r) {
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
			if !cu.candidate(int32(k), r) {
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
