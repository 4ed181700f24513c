// The bitset cover engine: per-hypergraph precomputed edge bitsets plus a
// bounded, concurrency-safe memo cache of bag-cover results keyed by the
// bag's vertex bitset. Every width evaluator in the repository bottoms out
// here; the cache is what lets A*/BB sibling states and GA populations stop
// re-solving identical bags.

package setcover

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
)

// DefaultCacheCapacity is the bag-cover cache bound used when callers do
// not choose one: entries are a few words each, so 64k entries stay in the
// low megabytes even on large instances.
const DefaultCacheCapacity = 1 << 16

// DefaultCoverSampleEvery is how many cover queries pass between the
// cover_cache trace events an observed engine emits. Per-query events would
// swamp a trace (searches issue millions); one cumulative snapshot every few
// thousand queries reconstructs the same hit-rate curve.
const DefaultCoverSampleEvery = 1 << 12

// Engine is the bag-cover engine for one hypergraph: word-packed hyperedge
// sets and a memo cache of cover sizes keyed by bag bitset. An Engine is
// safe for concurrent use and is meant to be shared — across the states of
// one search, across GA workers, across SAIGA islands. The per-call mutable
// workspace lives in Scratch values, one per goroutine.
type Engine struct {
	h        *hypergraph.Hypergraph
	nv       int
	edgeBits []bitset.Set
	cache    *coverCache
	hits     atomic.Int64
	misses   atomic.Int64

	// parent makes this engine an attributed member view (see Member): the
	// hypergraph, edge bitsets, memo cache and recorder all belong to the
	// parent, while hits/misses count only the queries issued through the
	// view. Immutable after Member; nil on a root engine.
	parent *Engine

	// rec, when non-nil, receives sampled cover_cache events (cumulative
	// counter snapshots every sampleEvery queries). Set via SetRecorder
	// before the engine is shared across goroutines; the disabled cost on
	// the cover hot path is a single nil check.
	rec         obs.Recorder
	sampleEvery int64
	queries     atomic.Int64
	recStart    time.Time
}

// NewEngine builds an engine for h. cacheCapacity bounds the number of
// memoized bags; 0 disables memoization, negative selects
// DefaultCacheCapacity.
func NewEngine(h *hypergraph.Hypergraph, cacheCapacity int) *Engine {
	nv := h.N()
	m := h.M()
	words := bitset.Words(nv)
	backing := make([]uint64, words*m)
	eb := make([]bitset.Set, m)
	for e := 0; e < m; e++ {
		s := bitset.Set(backing[e*words : (e+1)*words])
		for _, v := range h.Edge(e) {
			s.Add(v)
		}
		eb[e] = s
	}
	eng := &Engine{h: h, nv: nv, edgeBits: eb}
	if cacheCapacity < 0 {
		cacheCapacity = DefaultCacheCapacity
	}
	if cacheCapacity > 0 {
		eng.cache = newCoverCache(cacheCapacity)
	}
	return eng
}

// Member returns an attributed view of the engine: queries through the view
// share the root engine's edge bitsets, memo cache and sampled recorder —
// so a member's query can still hit an entry a sibling populated — but the
// view's CacheStats counts only the queries issued through it. Hits and
// misses through a view also land on the root's counters, so the root's
// totals remain the global truth. Member of a member attaches to the same
// root (views do not nest).
func (e *Engine) Member() *Engine {
	r := e.root()
	return &Engine{h: r.h, nv: r.nv, edgeBits: r.edgeBits, cache: r.cache, parent: r}
}

// root resolves the engine that owns the shared state: itself for a root
// engine, the shared root for a member view.
func (e *Engine) root() *Engine {
	if e.parent != nil {
		return e.parent
	}
	return e
}

// addHit counts one cache hit on this engine and, for a member view, on the
// shared root too — the pairing that keeps member counts summing to the
// root's totals.
func (e *Engine) addHit() {
	e.hits.Add(1)
	if e.parent != nil {
		e.parent.hits.Add(1)
	}
}

func (e *Engine) addMiss() {
	e.misses.Add(1)
	if e.parent != nil {
		e.parent.misses.Add(1)
	}
}

// Hypergraph returns the hypergraph the engine covers bags of.
func (e *Engine) Hypergraph() *hypergraph.Hypergraph { return e.h }

// CacheStats reports the memo cache's hit/miss counters and current size.
// A hit is a query answered entirely from the cache; partially useful
// entries (e.g. a lower bound below the requested cap) count as misses.
// Evictions counts bags displaced by the FIFO bound — a high eviction rate
// means the working set outgrew the capacity and hits are being lost.
type CacheStats struct {
	Hits, Misses int64
	Evictions    int64
	Size         int
}

// CacheStats returns the engine's cache counters (zeros when memoization is
// disabled). Safe to call concurrently with cover queries from any
// goroutine: the counters are atomics and the size/eviction reads take the
// cache lock.
func (e *Engine) CacheStats() CacheStats {
	s := CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
	if e.cache != nil {
		s.Size, s.Evictions = e.cache.sizeAndEvictions()
	}
	return s
}

// SetRecorder attaches rec to the engine: every sampleEvery-th cover query
// emits one cumulative cover_cache event (non-positive sampleEvery selects
// DefaultCoverSampleEvery). Attach before sharing the engine across
// goroutines — the field is read unsynchronized on the query path. A nil
// rec detaches.
func (e *Engine) SetRecorder(rec obs.Recorder, sampleEvery int64) {
	e.SetRecorderAt(rec, sampleEvery, time.Now())
}

// SetRecorderAt is SetRecorder with an explicit clock base: event t_ns is
// measured from start rather than from the attach instant. Callers with a
// run budget pass its StartTime so cover_cache events share the trace's
// time base — with separate bases, strict trace validation sees the skew as
// time going backwards.
func (e *Engine) SetRecorderAt(rec obs.Recorder, sampleEvery int64, start time.Time) {
	if sampleEvery <= 0 {
		sampleEvery = DefaultCoverSampleEvery
	}
	r := e.root()
	r.rec = rec
	r.sampleEvery = sampleEvery
	r.recStart = start
}

// observe counts one cover query against the sampling interval and emits a
// cover_cache snapshot when it completes. The disabled path is the nil
// check alone; BenchmarkNoopRecorder guards its cost. Member views sample
// against the root's query counter and emit the root's global snapshot, so
// a portfolio's trace cadence is independent of how the queries split
// across members.
func (e *Engine) observe() {
	r := e.root()
	if r.rec == nil {
		return
	}
	if r.queries.Add(1)%r.sampleEvery != 0 {
		return
	}
	s := r.CacheStats()
	r.rec.Record(obs.Event{
		Kind: obs.KindCoverCache, T: time.Since(r.recStart),
		CacheHits: s.Hits, CacheMisses: s.Misses,
		CacheEvictions: s.Evictions, CacheSize: s.Size,
	})
}

// Scratch is the per-goroutine workspace of an engine's cover queries. It
// draws its bag-sized bitsets from a pooled allocator and reuses the
// candidate buffers and the exact search's state, so the steady-state hot
// path performs no allocation. A Scratch is not safe for concurrent use;
// each worker owns one.
type Scratch struct {
	pool      *bitset.Pool
	bag       bitset.Set
	uncovered bitset.Set
	key       []byte
	cand      []int
	edgeMark  []uint64 // loadBag's candidate bitset over hyperedges; zero between calls
	touched   []int    // the edgeMark words loadBag set
	candUsed  []bool
	candBits  []bitset.Set
	pos       []int32 // vertex -> bag position; -1 outside the bag
	elems     []int
	cands     []candSet
	posBuf    []int // backing store for the candidates' position lists
	offs      []int // start offset of each candidate's positions in posBuf
	exact     exactSearch
}

// NewScratch returns a fresh workspace for queries against e.
func (e *Engine) NewScratch() *Scratch {
	p := bitset.NewPool(e.nv)
	sc := &Scratch{
		pool:      p,
		bag:       p.Get(),
		uncovered: p.Get(),
		edgeMark:  make([]uint64, bitset.Words(e.h.M())),
		pos:       make([]int32, e.nv),
	}
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	return sc
}

// loadBag fills sc.bag and sc.cand for the given bag: the bag's bitset and
// the ascending indices of all hyperedges incident to it (the only useful
// cover candidates). The candidates are marked in a bitset over the
// hyperedges and read back from only the words the bag touched, so the
// order costs no sort of the candidates and no scan of all hyperedges.
func (e *Engine) loadBag(sc *Scratch, bag []int) {
	sc.bag.Clear()
	sc.touched = sc.touched[:0]
	for _, v := range bag {
		sc.bag.Add(v)
		for _, ei := range e.h.IncidentEdges(v) {
			w := ei >> 6
			if sc.edgeMark[w] == 0 {
				sc.touched = append(sc.touched, w)
			}
			sc.edgeMark[w] |= 1 << (uint(ei) & 63)
		}
	}
	// Canonical ascending order: greedy tie-breaking then depends only on
	// the bag's vertex set, which keeps the memo cache consistent with
	// recomputation.
	slices.Sort(sc.touched)
	sc.cand = sc.cand[:0]
	for _, w := range sc.touched {
		for x := sc.edgeMark[w]; x != 0; x &= x - 1 {
			sc.cand = append(sc.cand, w<<6+bits.TrailingZeros64(x))
		}
		sc.edgeMark[w] = 0
	}
}

// GreedySize returns the size of a greedy cover of bag by hyperedges, or -1
// if the bag is uncoverable. Results are memoized by bag; a cached size is
// returned even when rng would have tie-broken differently (any greedy
// cover size is a valid upper bound).
func (e *Engine) GreedySize(sc *Scratch, bag []int, rng *rand.Rand) int {
	faultinject.Hit(faultinject.SiteCover)
	if len(bag) == 0 {
		return 0
	}
	e.observe()
	e.loadBag(sc, bag)
	if e.cache != nil {
		sc.key = sc.bag.AppendKey(sc.key[:0])
		if ent, ok := e.cache.lookup(sc.key); ok && ent.greedy != sizeUnknown {
			e.addHit()
			return int(ent.greedy)
		}
		e.addMiss()
	}
	size := e.greedySizeUncached(sc, rng)
	if e.cache != nil {
		e.cache.update(sc.key, func(ent *coverEntry) {
			ent.greedy = int32(size)
			if size == -1 {
				ent.exact = -1 // coverability does not depend on the mode
			}
		})
	}
	return size
}

// greedySizeUncached runs the bitset greedy over sc's loaded bag.
func (e *Engine) greedySizeUncached(sc *Scratch, rng *rand.Rand) int {
	sc.uncovered.CopyFrom(sc.bag)
	if cap(sc.candUsed) < len(sc.cand) {
		sc.candUsed = make([]bool, len(sc.cand))
	}
	used := sc.candUsed[:len(sc.cand)]
	for i := range used {
		used[i] = false
	}
	size := 0
	for sc.uncovered.Any() {
		best, bestGain, ties := -1, 0, 0
		for i, ei := range sc.cand {
			if used[i] {
				continue
			}
			gain := e.edgeBits[ei].AndCount(sc.uncovered)
			switch {
			case gain > bestGain:
				best, bestGain, ties = i, gain, 1
			case gain == bestGain && gain > 0:
				ties++
				if rng != nil && rng.Intn(ties) == 0 {
					best = i
				}
			}
		}
		if best < 0 {
			return -1 // some bag vertex is in no hyperedge
		}
		used[best] = true
		sc.uncovered.AndNot(e.edgeBits[sc.cand[best]])
		size++
	}
	return size
}

// ExactSizeCapped returns the minimum number of hyperedges covering bag,
// except that under a positive cap any minimum >= cap reports exactly cap
// (the caller prunes such bags anyway, so the search stops early). It
// returns -1 if the bag is uncoverable. Results — including cap-censored
// lower bounds — are memoized by bag. b, when non-nil, is polled as the
// search branches; a search it cuts also reports cap, and is not memoized.
func (e *Engine) ExactSizeCapped(sc *Scratch, bag []int, cap int, b *budget.B) int {
	faultinject.Hit(faultinject.SiteCover)
	if len(bag) == 0 {
		return 0
	}
	e.observe()
	e.loadBag(sc, bag)
	if e.cache != nil {
		sc.key = sc.bag.AppendKey(sc.key[:0])
		if ent, ok := e.cache.lookup(sc.key); ok {
			if ent.exact != sizeUnknown {
				e.addHit()
				if ent.exact >= 0 && cap > 0 && int(ent.exact) >= cap {
					return cap
				}
				return int(ent.exact)
			}
			if cap > 0 && ent.exactLB != sizeUnknown && int(ent.exactLB) >= cap {
				e.addHit()
				return cap
			}
		}
		e.addMiss()
	}
	chosen, capped, cut := e.exactUncached(sc, cap, 0, b)
	var size int
	switch {
	case cut:
		return cap
	case capped:
		size = cap
	case chosen == nil:
		size = -1
	default:
		size = len(chosen)
	}
	if e.cache != nil {
		e.cache.update(sc.key, func(ent *coverEntry) {
			switch {
			case size == -1:
				ent.exact, ent.greedy = -1, -1
			case cap > 0 && size == cap:
				// Only a censored bound: the true minimum is >= cap.
				if ent.exactLB == sizeUnknown || int(ent.exactLB) < cap {
					ent.exactLB = int32(cap)
				}
			default:
				ent.exact = int32(size)
			}
		})
	}
	return size
}

// exactUncached restricts the candidates to sc's loaded bag and runs the
// scratch's exact search (see exactSearch.run for cap, enough and b). The
// chosen cover is hyperedge indices in pick order, in a slice the next
// search through sc overwrites.
func (e *Engine) exactUncached(sc *Scratch, cap, enough int, b *budget.B) (chosen []int, capped, cut bool) {
	// Bag positions, ascending by vertex id.
	sc.elems = sc.bag.AppendTo(sc.elems[:0])
	ne := len(sc.elems)
	for i, v := range sc.elems {
		sc.pos[v] = int32(i)
	}
	// Restrict each candidate edge to the bag, reusing the scratch buffers so
	// the restriction pass stops allocating once they are warm. The position
	// map is monotone and NextSetBit iterates ascending, so the position
	// lists come out ascending.
	sc.cands = sc.cands[:0]
	sc.candBits = sc.candBits[:0]
	sc.posBuf = sc.posBuf[:0]
	sc.offs = sc.offs[:0]
	for _, ei := range sc.cand {
		bits := sc.pool.Get()
		sc.candBits = append(sc.candBits, bits)
		bits.CopyFrom(e.edgeBits[ei])
		bits.And(sc.bag)
		sc.offs = append(sc.offs, len(sc.posBuf))
		for v := bits.NextSetBit(0); v >= 0; v = bits.NextSetBit(v + 1) {
			sc.posBuf = append(sc.posBuf, int(sc.pos[v]))
		}
		sc.cands = append(sc.cands, candSet{bits: bits, orig: ei})
	}
	// Slice the shared position buffer only after it stops growing: appends
	// may move it, which would strand subslices taken earlier.
	for i := range sc.cands {
		end := len(sc.posBuf)
		if i+1 < len(sc.cands) {
			end = sc.offs[i+1]
		}
		sc.cands[i].elems = sc.posBuf[sc.offs[i]:end]
	}
	sc.uncovered.CopyFrom(sc.bag)
	chosen, capped, cut = sc.exact.run(ne, sc.cands, sc.uncovered, cap, enough, b)
	// The search compacts cands in place during dedup/domination, so release
	// the sets recorded at allocation time, not through cands.
	for _, bits := range sc.candBits {
		sc.pool.Put(bits)
	}
	for _, v := range sc.elems {
		sc.pos[v] = -1
	}
	return chosen, capped, cut
}

// GreedyCover returns a greedy cover of bag as sorted hyperedge indices, or
// nil if uncoverable: the cover GreedySize measures, tie-broken by rng.
// Unlike GreedySize it bypasses the memo cache; it serves the decomposition
// builders, which need λ-sets, not just widths.
func (e *Engine) GreedyCover(sc *Scratch, bag []int, rng *rand.Rand) []int {
	faultinject.Hit(faultinject.SiteCover)
	if len(bag) == 0 {
		return []int{}
	}
	e.loadBag(sc, bag)
	size := e.greedySizeUncached(sc, rng)
	if size < 0 {
		return nil
	}
	// The greedy marks its picks in candUsed; sc.cand is ascending, so the
	// cover comes out sorted.
	out := make([]int, 0, size)
	for i, used := range sc.candUsed[:len(sc.cand)] {
		if used {
			out = append(out, sc.cand[i])
		}
	}
	return out
}

// ExactCover returns a minimum cover of bag as sorted hyperedge indices, or
// nil if bag is uncoverable. b, when non-nil, bounds the search: it is
// polled as the search branches, and a stopped budget cuts the search,
// reported as cut with the best cover the search met (at least a greedy
// cover of the deduplicated, undominated candidates), so a cut cover is
// valid but maybe not minimum. Like GreedyCover it bypasses the memo cache.
func (e *Engine) ExactCover(sc *Scratch, bag []int, b *budget.B) (cover []int, cut bool) {
	faultinject.Hit(faultinject.SiteCover)
	if len(bag) == 0 {
		return []int{}, false
	}
	e.loadBag(sc, bag)
	chosen, _, cut := e.exactUncached(sc, 0, 0, b)
	return sortedCopy(chosen), cut
}

// CoverWithin returns a cover of bag by at most k hyperedges as sorted
// indices, or nil when bag needs more than k (or is uncoverable). It stops
// at the first such cover the exact search meets rather than proving a
// minimum, so a caller that already knows a k-cover exists (it scored the
// bag at k) pays at most what that proof cost. It is never cut.
func (e *Engine) CoverWithin(sc *Scratch, bag []int, k int) []int {
	faultinject.Hit(faultinject.SiteCover)
	if len(bag) == 0 {
		return []int{}
	}
	if k < 1 {
		return nil
	}
	e.loadBag(sc, bag)
	chosen, _, _ := e.exactUncached(sc, k+1, k, nil)
	return sortedCopy(chosen)
}

// sortedCopy returns a sorted copy of a cover the exact search returned in
// its own storage, or nil for none.
func sortedCopy(chosen []int) []int {
	if chosen == nil {
		return nil
	}
	out := slices.Clone(chosen)
	slices.Sort(out)
	return out
}

// ---- the memo cache ----

// sizeUnknown marks a coverEntry field that has not been computed yet
// (-1 is taken: it means "uncoverable").
const sizeUnknown = int32(-1 << 30)

// coverEntry memoizes what is known about one bag: its greedy cover size,
// its exact minimum, and — from cap-censored exact runs — a proven lower
// bound on the minimum.
type coverEntry struct {
	greedy  int32
	exact   int32
	exactLB int32
}

// maxCacheShards bounds the sharding of the cover cache. 16 shards keep
// lock contention negligible for the worker counts the parallel searches
// run (a few per core) while the per-shard maps stay large enough to hash
// well.
const maxCacheShards = 16

// coverCache is a bounded map from bag keys to cover entries, sharded by a
// hash of the key so concurrent search workers hitting the same engine do
// not serialize on one lock. Each shard is an independent map with its own
// FIFO ring; the shard capacities sum to the requested capacity, so the
// total size bound is exact while eviction order is only per-shard FIFO.
// Maps and rings start empty and grow on demand up to their shard's
// capacity: an engine built for a short run pays only for the bags it
// memoizes. All methods are safe for concurrent use.
type coverCache struct {
	shards    []cacheShard
	mask      uint64 // len(shards)-1; shard count is a power of two
	evictions atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	m        map[string]coverEntry
	ring     []string
	next     int
}

func newCoverCache(capacity int) *coverCache {
	ns := maxCacheShards
	for ns > 1 && ns > capacity {
		ns >>= 1
	}
	c := &coverCache{shards: make([]cacheShard, ns), mask: uint64(ns - 1)}
	per, extra := capacity/ns, capacity%ns
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = per
		if i < extra {
			sh.capacity++
		}
		sh.m = make(map[string]coverEntry)
	}
	return c
}

// shard picks the shard for key by FNV-1a. The bag-key encoding trims
// trailing zero words, so the hash mixes exactly the meaningful bytes.
func (c *coverCache) shard(key []byte) *cacheShard {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	// Fold the high bits in so shard choice is not just the low byte's parity
	// pattern (bag keys are little-endian popcount-sparse words).
	return &c.shards[(h^h>>32)&c.mask]
}

// lookup returns the entry for key, if present. The []byte-to-string
// conversion in the map index compiles to a no-alloc lookup.
func (c *coverCache) lookup(key []byte) (coverEntry, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	ent, ok := sh.m[string(key)]
	sh.mu.Unlock()
	return ent, ok
}

// update applies fn to key's entry, inserting (and, at shard capacity,
// evicting the shard's oldest bag) if absent.
func (c *coverCache) update(key []byte, fn func(*coverEntry)) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent, ok := sh.m[string(key)]
	if !ok {
		ent = coverEntry{greedy: sizeUnknown, exact: sizeUnknown, exactLB: sizeUnknown}
		k := string(key)
		if len(sh.ring) < sh.capacity {
			sh.ring = append(sh.ring, k)
		} else {
			delete(sh.m, sh.ring[sh.next])
			sh.ring[sh.next] = k
			sh.next = (sh.next + 1) % sh.capacity
			c.evictions.Add(1)
		}
		fn(&ent)
		sh.m[k] = ent
		return
	}
	fn(&ent)
	sh.m[string(key)] = ent
}

func (c *coverCache) sizeAndEvictions() (int, int64) {
	size := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		size += len(sh.m)
		sh.mu.Unlock()
	}
	return size, c.evictions.Load()
}
