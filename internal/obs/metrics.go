package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// EventCounters is a Recorder that keeps only per-kind event totals and the
// latest cover-cache snapshot — the cheap, always-on aggregate a metrics
// endpoint wants, as opposed to RunStats's per-run detail. All methods are
// lock-free; one instance can sit behind an entire experiments process.
type EventCounters struct {
	counts  []atomic.Int64 // one slot per Kinds entry
	unknown atomic.Int64
	// Latest cover-cache snapshot (events carry cumulative totals, so the
	// last one seen wins).
	cacheHits, cacheMisses atomic.Int64
}

// kindIndex gives each taxonomy kind a fixed counter slot.
var kindIndex = func() map[Kind]int {
	m := make(map[Kind]int, len(Kinds))
	for i, k := range Kinds {
		m[k] = i
	}
	return m
}()

// NewEventCounters returns a zeroed counter set.
func NewEventCounters() *EventCounters {
	return &EventCounters{counts: make([]atomic.Int64, len(Kinds))}
}

// Record implements Recorder.
func (c *EventCounters) Record(e Event) {
	i, ok := kindIndex[e.Kind]
	if !ok {
		c.unknown.Add(1)
		return
	}
	c.counts[i].Add(1)
	if e.Kind == KindCoverCache {
		c.cacheHits.Store(e.CacheHits)
		c.cacheMisses.Store(e.CacheMisses)
	}
}

// CacheHitRatio returns hits/(hits+misses) from the latest cover-cache
// snapshot, or -1 when no snapshot has been seen.
func (c *EventCounters) CacheHitRatio() float64 {
	h, m := c.cacheHits.Load(), c.cacheMisses.Load()
	if h+m == 0 {
		return -1
	}
	return float64(h) / float64(h+m)
}

// Counts returns a point-in-time copy of the per-kind totals, for expvar.
func (c *EventCounters) Counts() map[string]int64 {
	out := make(map[string]int64, len(kindIndex)+1)
	for k, i := range kindIndex {
		out[string(k)] = c.counts[i].Load()
	}
	if u := c.unknown.Load(); u > 0 {
		out["unknown"] = u
	}
	return out
}

// WriteOpenMetrics renders the counters in the Prometheus/OpenMetrics text
// exposition format, for a /metrics handler. Kinds are emitted in sorted
// order so the output is diffable.
func (c *EventCounters) WriteOpenMetrics(w io.Writer) error {
	kinds := make([]string, 0, len(kindIndex))
	for k := range kindIndex {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	if _, err := fmt.Fprintf(w, "# HELP hypertree_obs_events_total Instrumentation events recorded, by kind.\n# TYPE hypertree_obs_events_total counter\n"); err != nil {
		return err
	}
	for _, k := range kinds {
		if _, err := fmt.Fprintf(w, "hypertree_obs_events_total{kind=%q} %d\n", k, c.counts[kindIndex[Kind(k)]].Load()); err != nil {
			return err
		}
	}
	h, m := c.cacheHits.Load(), c.cacheMisses.Load()
	if _, err := fmt.Fprintf(w, "# HELP hypertree_cover_cache_hits Cover-engine memo cache hits (latest snapshot).\n# TYPE hypertree_cover_cache_hits gauge\nhypertree_cover_cache_hits %d\n", h); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# HELP hypertree_cover_cache_misses Cover-engine memo cache misses (latest snapshot).\n# TYPE hypertree_cover_cache_misses gauge\nhypertree_cover_cache_misses %d\n", m); err != nil {
		return err
	}
	if ratio := c.CacheHitRatio(); ratio >= 0 {
		if _, err := fmt.Fprintf(w, "# HELP hypertree_cover_cache_hit_ratio Cover-cache hit ratio (latest snapshot).\n# TYPE hypertree_cover_cache_hit_ratio gauge\nhypertree_cover_cache_hit_ratio %g\n", ratio); err != nil {
			return err
		}
	}
	return nil
}
