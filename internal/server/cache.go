package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/core"
)

// DefaultCacheCapacity bounds the daemon's result cache when the caller does
// not choose: entries are one small Response each, so 4k entries stay well
// under a megabyte while absorbing the retry traffic a flaky client or a
// load balancer produces.
const DefaultCacheCapacity = 1 << 12

// DefaultPlanCacheCapacity bounds the compiled-plan cache. Plans carry
// materialized bag tables and row groups — orders of magnitude heavier
// than a Response — so the default is correspondingly smaller: enough for a
// working set of hot instances, small enough that a scan of one-off CSPs
// cannot pin unbounded memory.
const DefaultPlanCacheCapacity = 128

// resultKey is the idempotency key of a decomposition request: a content
// hash over everything that determines an exact answer — the raw payload
// bytes, the input format, the algorithm and the seed. Budgets and worker
// counts are deliberately excluded: they change how long a run takes, never
// what an *exact* result is, and only exact results are cached. The /query
// plan cache does NOT share this key — it also stores upper-bound plans,
// whose shape can depend on the budgets, so it uses planKey.
func resultKey(body []byte, format string, algo core.Algorithm, seed int64) string {
	h := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(seed))
	h.Write(hdr[:])
	h.Write([]byte(format))
	h.Write([]byte{0})
	h.Write([]byte(algo))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// planKey is the compiled-plan cache key behind /query: the resultKey
// content hash (format pinned to "csp", the raw CSP JSON as the payload —
// the queries array is excluded, it parameterizes runs against the plan,
// never the plan itself) extended with the request's budget knobs. Unlike
// the exact-only result cache, the plan cache stores upper-bound plans, and
// a heuristic decomposition legitimately depends on how much timeout / node
// budget / parallelism the run was given — so identical CSPs under
// different budgets get distinct entries, keeping every cached plan's
// reported width, node count and outcome true to the request that compiled
// it. (Exact plans fragment across budget variants too; that costs a few
// duplicate cache slots, never a wrong answer.)
func planKey(cspBody []byte, algo core.Algorithm, seed int64, timeout time.Duration, nodes int64, workers int) string {
	h := sha256.New()
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(seed))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(timeout))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(nodes))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(workers))
	h.Write(hdr[:])
	h.Write([]byte("csp"))
	h.Write([]byte{0})
	h.Write([]byte(algo))
	h.Write([]byte{0})
	h.Write(cspBody)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// maxCacheShards bounds the sharding of the daemon caches — the same
// lock-striping discipline as the setcover engine's cover cache: enough
// shards that concurrent handlers do not serialize on one lock, few enough
// that the per-shard maps stay warm.
const maxCacheShards = 16

// fifoCache is a bounded, sharded map from content-hash keys to values.
// Each shard is an independent map with its own FIFO ring; capacities sum to
// the requested capacity so the total bound is exact while eviction order is
// only per-shard FIFO. All methods are safe for concurrent use. The result
// cache (hash -> *Response) and the compiled-plan cache (hash ->
// *cachedPlan) are the two instantiations.
type fifoCache[V any] struct {
	shards    []fifoShard[V]
	mask      uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type fifoShard[V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[string]V
	ring     []string
	next     int
}

// newFIFOCache builds a cache bounded to capacity entries; nil (a valid,
// always-missing cache) when capacity is not positive.
func newFIFOCache[V any](capacity int) *fifoCache[V] {
	if capacity <= 0 {
		return nil
	}
	ns := maxCacheShards
	for ns > 1 && ns > capacity {
		ns >>= 1
	}
	c := &fifoCache[V]{shards: make([]fifoShard[V], ns), mask: uint64(ns - 1)}
	per, extra := capacity/ns, capacity%ns
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = per
		if i < extra {
			sh.capacity++
		}
		sh.m = make(map[string]V, sh.capacity/4)
		sh.ring = make([]string, 0, sh.capacity)
	}
	return c
}

// shard picks the shard for key by FNV-1a over the hex hash.
func (c *fifoCache[V]) shard(key string) *fifoShard[V] {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[(h^h>>32)&c.mask]
}

// lookup returns the cached value for key. A nil cache always misses
// without counting. The returned value is shared — callers must copy before
// mutating per-request state.
func (c *fifoCache[V]) lookup(key string) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// store inserts v under key, evicting the shard's oldest entry at capacity.
// Re-storing an existing key refreshes the value without growing the ring.
func (c *fifoCache[V]) store(key string, v V) {
	if c == nil {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		sh.m[key] = v
		return
	}
	if len(sh.ring) < sh.capacity {
		sh.ring = append(sh.ring, key)
	} else {
		delete(sh.m, sh.ring[sh.next])
		sh.ring[sh.next] = key
		sh.next = (sh.next + 1) % sh.capacity
		c.evictions.Add(1)
	}
	sh.m[key] = v
}

// cacheStats is a point-in-time snapshot for /metrics.
type cacheStats struct {
	Hits, Misses, Evictions int64
	Size                    int
}

func (c *fifoCache[V]) stats() cacheStats {
	if c == nil {
		return cacheStats{}
	}
	s := cacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Size += len(sh.m)
		sh.mu.Unlock()
	}
	return s
}

// resultCache is the exact-result instantiation; newResultCache keeps the
// historical constructor name used throughout the serving path.
type resultCache = fifoCache[*Response]

func newResultCache(capacity int) *resultCache {
	return newFIFOCache[*Response](capacity)
}
