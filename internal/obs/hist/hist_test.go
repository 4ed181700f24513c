package hist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDefaultBoundsAscending(t *testing.T) {
	b := DefaultBounds()
	if len(b) == 0 {
		t.Fatal("no default bounds")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
	if b[0] != 10*time.Microsecond || b[len(b)-1] != 100*time.Second {
		t.Fatalf("bounds range %v .. %v, want 10µs .. 100s", b[0], b[len(b)-1])
	}
}

func TestObserveAndCount(t *testing.T) {
	h := New()
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("snapshot count = %d, want 100", s.Count)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != 100 {
		t.Fatalf("bucket counts sum to %d, want 100", sum)
	}
	// Sum is exact, not bucketed: 0+1+...+99 ms.
	if want := time.Duration(99*100/2) * time.Millisecond; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}

func TestNegativeAndOverflow(t *testing.T) {
	h := New()
	h.Observe(-5 * time.Second) // clamps to 0, lands in the first bucket
	h.Observe(20 * time.Minute) // beyond the last bound: overflow bucket
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatalf("negative observation not clamped into first bucket: %v", s.Counts)
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("huge observation not in overflow bucket: %v", s.Counts)
	}
	// The overflow quantile reports the last bound, not garbage.
	if q := s.Quantile(1); q != s.Bounds[len(s.Bounds)-1] {
		t.Fatalf("overflow quantile = %v, want last bound %v", q, s.Bounds[len(s.Bounds)-1])
	}
}

func TestNilHistogramInert(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	s := h.Snapshot()
	if s == nil || s.Count != 0 || s.Quantile(0.5) != 0 || s.Sum != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

// TestQuantileAccuracy checks the log-bucket error bound: estimates stay
// within one bucket ratio of the exact sample quantile.
func TestQuantileAccuracy(t *testing.T) {
	h := New()
	rng := rand.New(rand.NewSource(42))
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform latencies from ~50µs to ~5s — the serving regime.
		d := time.Duration(float64(50*time.Microsecond) * math.Exp(rng.Float64()*11.5))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := s.Quantile(q)
		ratio := float64(got) / float64(exact)
		if ratio < 1/2.6 || ratio > 2.6 {
			t.Errorf("q=%v: estimate %v vs exact %v (ratio %.2f) outside one bucket step", q, got, exact, ratio)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := NewWithBounds([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
	// 100 observations all inside (10ms, 20ms].
	for i := 0; i < 100; i++ {
		h.Observe(15 * time.Millisecond)
	}
	s := h.Snapshot()
	// Median interpolates to the middle of the winning bucket.
	if q := s.Quantile(0.5); q != 15*time.Millisecond {
		t.Fatalf("interpolated median = %v, want 15ms", q)
	}
	if q := s.Quantile(1); q != 20*time.Millisecond {
		t.Fatalf("q=1 = %v, want bucket upper bound 20ms", q)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < 50; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if sa.Count != 100 {
		t.Fatalf("merged count = %d, want 100", sa.Count)
	}
	if want := 50*time.Millisecond + 50*time.Second; sa.Sum != want {
		t.Fatalf("merged sum = %v, want %v", sa.Sum, want)
	}
	// Median straddles the two populations.
	if q := sa.Quantile(0.5); q > 10*time.Millisecond {
		t.Fatalf("merged median %v should sit in the fast half", q)
	}
	if q := sa.Quantile(0.99); q < 500*time.Millisecond {
		t.Fatalf("merged p99 %v should sit in the slow half", q)
	}

	// Merging into an empty snapshot adopts the layout.
	empty := &Snapshot{}
	if err := empty.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if empty.Count != 50 {
		t.Fatalf("empty-merge count = %d, want 50", empty.Count)
	}

	// Incompatible layouts refuse to merge.
	other := NewWithBounds([]time.Duration{time.Second}).Snapshot()
	other.Counts[0] = 1
	other.Count = 1
	if err := sa.Merge(other); err == nil {
		t.Fatal("incompatible merge must error")
	}
}

func TestConcurrentObserve(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	const goroutines, per = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Fatalf("count = %d, want %d (lost updates)", got, goroutines*per)
	}
	var sum int64
	for _, c := range h.Snapshot().Counts {
		sum += c
	}
	if sum != goroutines*per {
		t.Fatalf("bucket sum = %d, want %d", sum, goroutines*per)
	}
}

func TestWriteHistogramFamilyCumulative(t *testing.T) {
	h := New()
	h.Observe(5 * time.Microsecond)
	h.Observe(30 * time.Millisecond)
	h.Observe(2 * time.Second)
	h.Observe(20 * time.Minute) // overflow
	var buf bytes.Buffer
	err := WriteHistogramFamily(&buf, "test_seconds", "A test histogram.",
		Series{Labels: []Label{{"outcome", "exact"}}, Snap: h.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# HELP test_seconds A test histogram.") ||
		!strings.Contains(out, "# TYPE test_seconds histogram") {
		t.Fatalf("missing HELP/TYPE:\n%s", out)
	}
	if !strings.Contains(out, `test_seconds_bucket{outcome="exact",le="+Inf"} 4`) {
		t.Fatalf("missing +Inf bucket with total count:\n%s", out)
	}
	if !strings.Contains(out, `test_seconds_count{outcome="exact"} 4`) {
		t.Fatalf("missing _count:\n%s", out)
	}
	// Bucket values are cumulative and non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts decreased at %q", line)
		}
		last = v
	}
	if last != 4 {
		t.Fatalf("final cumulative bucket = %d, want 4", last)
	}
}

func TestWriteSummaryFamily(t *testing.T) {
	h := New()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var buf bytes.Buffer
	err := WriteSummaryFamily(&buf, "test_latency_seconds", "Quantiles.", []float64{0.5, 0.95, 0.99},
		Series{Labels: []Label{{"phase", "solve"}}, Snap: h.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds summary",
		`test_latency_seconds{phase="solve",quantile="0.5"}`,
		`test_latency_seconds{phase="solve",quantile="0.95"}`,
		`test_latency_seconds{phase="solve",quantile="0.99"}`,
		`test_latency_seconds_count{phase="solve"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// The rendered p50 must be close to the true 50ms median.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `quantile="0.5"`) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
				t.Fatalf("bad quantile line %q", line)
			}
			if v < 0.025 || v > 0.1 {
				t.Fatalf("rendered p50 %vs too far from 0.05s", v)
			}
		}
	}
}

func TestNewWithBoundsPanics(t *testing.T) {
	for _, bounds := range [][]time.Duration{
		{},
		{time.Second, time.Millisecond},
		{time.Second, time.Second},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWithBounds(%v) did not panic", bounds)
				}
			}()
			NewWithBounds(bounds)
		}()
	}
}

// TestQuantileEdges pins the boundary contracts of Quantile: q at or below 0
// clamps to the smallest positive quantile (never "before the data"), q
// above 1 clamps to 1, and q=1 lands exactly on the winning bucket's upper
// bound for a single-valued population.
func TestQuantileEdges(t *testing.T) {
	h := New()
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	// All mass sits in the (500µs, 1ms] bucket, so every quantile must too.
	lo, hi := 500*time.Microsecond, time.Millisecond
	if q := s.Quantile(0); q <= lo || q > hi {
		t.Fatalf("Quantile(0) = %v, want in (%v, %v]", q, lo, hi)
	}
	if s.Quantile(-3) != s.Quantile(0) {
		t.Fatalf("negative q %v != q=0 %v", s.Quantile(-3), s.Quantile(0))
	}
	if q := s.Quantile(1); q != hi {
		t.Fatalf("Quantile(1) = %v, want bucket bound %v", q, hi)
	}
	if s.Quantile(5) != s.Quantile(1) {
		t.Fatalf("q>1 %v != q=1 %v", s.Quantile(5), s.Quantile(1))
	}
}

// TestMergeEmptyIntoPopulated is the no-op direction of Merge: folding an
// empty (or nil) snapshot into a populated one must change nothing — the
// daemon's overall-latency merge hits this on outcomes that never occurred.
func TestMergeEmptyIntoPopulated(t *testing.T) {
	h := New()
	for i := 0; i < 5; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	count, sum := s.Count, s.Sum
	if err := s.Merge(&Snapshot{}); err != nil {
		t.Fatalf("merging empty snapshot: %v", err)
	}
	if err := s.Merge(nil); err != nil {
		t.Fatalf("merging nil snapshot: %v", err)
	}
	if s.Count != count || s.Sum != sum {
		t.Fatalf("no-op merge mutated snapshot: count %d->%d sum %v->%v", count, s.Count, sum, s.Sum)
	}
	if q := s.Quantile(0.5); q <= 0 {
		t.Fatalf("median lost after no-op merges: %v", q)
	}
}

// TestOverflowOnlyDistribution covers a population living entirely in the
// overflow bucket: quantiles saturate at the last bound (the histogram's
// honest best), the mean stays exact (Sum tracks true durations), and the
// OpenMetrics rendering keeps the +Inf == _count identity.
func TestOverflowOnlyDistribution(t *testing.T) {
	h := NewWithBounds([]time.Duration{time.Millisecond, time.Second})
	for i := 0; i < 3; i++ {
		h.Observe(time.Minute)
	}
	s := h.Snapshot()
	if s.Counts[2] != 3 || s.Counts[0] != 0 || s.Counts[1] != 0 {
		t.Fatalf("overflow-only counts wrong: %v", s.Counts)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != time.Second {
			t.Fatalf("Quantile(%g) = %v, want last bound 1s", q, got)
		}
	}
	if s.Sum != 3*time.Minute {
		t.Fatalf("Sum = %v, want exact 3m", s.Sum)
	}
	var b strings.Builder
	if err := WriteHistogramFamily(&b, "overflow_test_seconds", "Overflow-only.", Series{Snap: s}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`le="0.001"} 0`, `le="1"} 0`, `le="+Inf"} 3`, "overflow_test_seconds_count 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}
