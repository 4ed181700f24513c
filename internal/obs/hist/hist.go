// Package hist provides mergeable, concurrency-safe, log-bucketed latency
// histograms — the aggregation primitive behind the daemon's request-latency
// metrics, and a reusable one: anything that observes durations at high rate
// from many goroutines (serving paths, parallel workers, benchmark loops)
// can fold them into a Histogram and read quantiles or OpenMetrics output
// later.
//
// The design follows the repository's two standing disciplines:
//
//   - Hot-path writes are lock-free and lock-striped, the same contention
//     discipline as the setcover engine's sharded cover cache: each
//     observation picks a shard by hashing the observed value and bumps
//     per-shard atomic counters, so concurrent observers do not serialize on
//     one cache line.
//   - Reads are snapshot-based: Snapshot folds the shards into one immutable
//     bucket vector that supports quantile estimation, merging across
//     histograms (same bounds required), and OpenMetrics rendering. A
//     snapshot taken while observers are live is a consistent-enough cut for
//     metrics (each counter is individually atomic; the cut is not
//     linearizable across buckets).
//
// Buckets are logarithmic: geometrically spaced upper bounds plus one
// overflow bucket, so a fixed, small bucket count covers microseconds to
// minutes with bounded relative error. Quantiles interpolate linearly inside
// the winning bucket, which keeps the estimate within one bucket ratio of
// the true value — the right trade for serving-latency percentiles (P50,
// P95, P99), where shape matters and the fourth significant digit does not.
//
// A nil *Histogram is valid and inert (Observe is a no-op, Snapshot returns
// an empty snapshot), mirroring the nil-Recorder contract of internal/obs.
package hist

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultBounds returns the default bucket upper bounds: a 1 / 2.5 / 5
// decade ladder from 10µs to 100s (22 bounds; everything above the last
// falls into the overflow bucket). The ladder renders cleanly as OpenMetrics
// `le` values and keeps worst-case quantile interpolation error at one
// bucket ratio (≤ 2.5x), far inside the noise of serving-latency tails.
func DefaultBounds() []time.Duration {
	var out []time.Duration
	for decade := time.Duration(10 * time.Microsecond); decade <= 10*time.Second; decade *= 10 {
		out = append(out, decade, decade*5/2, decade*5)
	}
	return append(out, 100*time.Second)
}

// numShards is the lock-striping width. Sixteen shards matches the setcover
// cover cache and the daemon result cache: enough that concurrent observers
// spread across cache lines, few enough that snapshots stay cheap.
const numShards = 16

// shard is one stripe of counters. Each shard is allocated its own counts
// slice, so two shards' hot counters live in different allocations (no
// deliberate false sharing).
type shard struct {
	counts []atomic.Int64 // one per bound, plus the overflow bucket
	count  atomic.Int64
	sumNS  atomic.Int64
}

// Histogram is a concurrency-safe duration histogram. Create with New or
// NewWithBounds; the zero value and nil are valid, inert histograms.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; implicit +Inf after
	shards []shard
}

// New returns a histogram over DefaultBounds.
func New() *Histogram { return NewWithBounds(DefaultBounds()) }

// NewWithBounds returns a histogram with the given ascending upper bounds
// (an overflow bucket is implicit). It panics on empty or unsorted bounds —
// bucket layouts are compile-time decisions, not runtime inputs.
func NewWithBounds(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		panic("hist: no bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("hist: bounds not strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		shards: make([]shard, numShards),
	}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// mix is SplitMix64's finalizer: it spreads the observed value over the
// shard space so concurrent observers land on different stripes without any
// shared state (durations differ at nanosecond granularity, so consecutive
// observations hash apart even when they are "the same" latency).
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// Observe records one duration. Negative durations clamp to zero (clock
// steps happen; a histogram is the wrong place to crash). Safe for
// concurrent use; a nil histogram discards the observation.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	// Binary search over ~23 bounds is a handful of branches — observations
	// happen per request, not per work unit, so clarity beats a log-linear
	// index trick here.
	idx := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	sh := &h.shards[mix(uint64(d))%numShards]
	sh.counts[idx].Add(1)
	sh.count.Add(1)
	sh.sumNS.Add(int64(d))
}

// Snapshot folds the shards into one immutable bucket vector. Safe to call
// while observers are live; a nil histogram snapshots empty.
func (h *Histogram) Snapshot() *Snapshot {
	if h == nil {
		return &Snapshot{}
	}
	s := &Snapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)+1),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for j := range sh.counts {
			s.Counts[j] += sh.counts[j].Load()
		}
		s.Count += sh.count.Load()
		s.Sum += time.Duration(sh.sumNS.Load())
	}
	return s
}

// Snapshot is a point-in-time bucket vector: Counts[i] observations fell at
// or under Bounds[i], Counts[len(Bounds)] is the overflow bucket. The zero
// value is an empty snapshot.
type Snapshot struct {
	Bounds []time.Duration
	Counts []int64
	Count  int64
	Sum    time.Duration
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the winning bucket; observations in the overflow bucket report the
// last bound (an underestimate, flagged by Quantile returning exactly that
// bound). An empty snapshot returns 0.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank target: the smallest bucket whose cumulative count
	// reaches ceil(q * Count).
	target := int64(math.Ceil(q * float64(s.Count)))
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			cum += c
			continue
		}
		if cum+c >= target {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1] // overflow: best we can say
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := float64(target-cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge adds o's buckets into s. Both snapshots must share the same bucket
// bounds — mergeability is the point of fixing bounds at construction (merge
// per-worker histograms, merge per-outcome histograms into an overall one).
// Merging an empty snapshot (no bounds) is a no-op; merging into an empty
// snapshot adopts o's bounds.
func (s *Snapshot) Merge(o *Snapshot) error {
	if o == nil || o.Count == 0 && len(o.Bounds) == 0 {
		return nil
	}
	if len(s.Bounds) == 0 {
		s.Bounds = o.Bounds
		s.Counts = make([]int64, len(o.Counts))
	}
	if len(s.Bounds) != len(o.Bounds) {
		return fmt.Errorf("hist: merging incompatible bucket layouts (%d vs %d bounds)", len(s.Bounds), len(o.Bounds))
	}
	for i, b := range s.Bounds {
		if o.Bounds[i] != b {
			return fmt.Errorf("hist: merging incompatible bucket layouts (bound %d: %v vs %v)", i, b, o.Bounds[i])
		}
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return nil
}

// Label is one OpenMetrics label pair, pre-validated by the caller (names
// are identifiers, values are escaped by the renderer).
type Label struct {
	Name, Value string
}

// Series pairs a snapshot with the labels identifying it inside a family
// (e.g. outcome="exact"). Labels may be empty for single-series families.
type Series struct {
	Labels []Label
	Snap   *Snapshot
}

// labelPrefix renders `name="value",` pairs ready to prepend to a final
// label (le, quantile), or the empty string.
func labelPrefix(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%q,", l.Name, l.Value)
	}
	return b.String()
}

// labelSet renders a complete `{...}` label block, or the empty string for
// an unlabeled series.
func labelSet(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	p := labelPrefix(labels)
	return "{" + p[:len(p)-1] + "}"
}

// WriteHistogramFamily renders one OpenMetrics histogram family: HELP/TYPE
// once, then per series the cumulative `le` buckets (ending in +Inf), the
// `_sum` (seconds) and the `_count`. Bucket cumulativity and the
// +Inf == _count identity hold by construction.
func WriteHistogramFamily(w io.Writer, name, help string, series ...Series) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	for _, sr := range series {
		s := sr.Snap
		if s == nil {
			s = &Snapshot{}
		}
		prefix := labelPrefix(sr.Labels)
		var cum int64
		for i, b := range s.Bounds {
			if i < len(s.Counts) {
				cum += s.Counts[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, prefix, b.Seconds(), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, s.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labelSet(sr.Labels), s.Sum.Seconds()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelSet(sr.Labels), s.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummaryFamily renders one OpenMetrics summary family: HELP/TYPE once,
// then per series one `quantile` sample per requested quantile (estimated
// from the snapshot's buckets) plus `_sum` and `_count`. This is how the
// daemon exposes P50/P95/P99 directly, next to the raw histograms a remote
// aggregator would prefer.
func WriteSummaryFamily(w io.Writer, name, help string, quantiles []float64, series ...Series) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name); err != nil {
		return err
	}
	for _, sr := range series {
		s := sr.Snap
		if s == nil {
			s = &Snapshot{}
		}
		prefix := labelPrefix(sr.Labels)
		for _, q := range quantiles {
			if _, err := fmt.Fprintf(w, "%s{%squantile=\"%g\"} %g\n", name, prefix, q, s.Quantile(q).Seconds()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labelSet(sr.Labels), s.Sum.Seconds()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelSet(sr.Labels), s.Count); err != nil {
			return err
		}
	}
	return nil
}
