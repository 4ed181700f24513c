package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// WidthPoint is one point of an anytime-width timeline: the best width known
// at time T, together with the effort counters at that moment.
type WidthPoint struct {
	T           time.Duration `json:"t_ns"`
	Width       int           `json:"width"`
	Nodes       int64         `json:"nodes,omitempty"`
	Evaluations int64         `json:"evaluations,omitempty"`
	Generation  int           `json:"generation,omitempty"`
}

// RunStats is the in-memory aggregator Recorder: it folds a run's event
// stream into the per-run statistics the thesis's tables are built from —
// the anytime-width timeline, expansion/evaluation/generation counts, open
// list high-water mark and cover-cache traffic. It is attached to
// search.Result, ga.Result, ga.SAIGAResult and core.Decomposition.
//
// All methods are safe for concurrent use. Reads taken while the run is
// still live see a consistent snapshot.
type RunStats struct {
	mu sync.Mutex

	// Algo is the run label from the algo_start event.
	Algo string
	// N and M are the instance size from algo_start.
	N, M int
	// Timeline is the anytime best-width trajectory: one point per improve
	// event, non-increasing in width and non-decreasing in time.
	Timeline []WidthPoint
	// LowerBounds is the proven-lower-bound trajectory (non-decreasing).
	LowerBounds []WidthPoint
	// Expansions is the final search-node count, Evaluations the final
	// fitness-evaluation count (from checkpoint and stop events).
	Expansions  int64
	Evaluations int64
	// Generations is the number of GA generations (SAIGA: epochs) summarized.
	Generations int
	// Checkpoints counts budget cooperative checkpoints observed.
	Checkpoints int64
	// MaxOpen is the A* open-list high-water mark (0 for other algorithms);
	// MaxClosed the duplicate-detection set high-water mark (dedup mode).
	MaxOpen   int
	MaxClosed int
	// MaxDepth and Backtracks are the BB search-shape gauges: deepest
	// elimination prefix seen at a checkpoint and exhausted-subtree count.
	MaxDepth   int
	Backtracks int64
	// WidthStd and DistinctWidths are the last generation's population
	// diversity (GA/SAIGA runs).
	WidthStd       float64
	DistinctWidths int
	// Memory telemetry from sampled mem_sample events: snapshot count, heap
	// high-water marks and the last GC cycle count seen.
	MemSamples   int64
	MaxHeapAlloc uint64
	MaxHeapSys   uint64
	NumGC        uint32
	// Cache counters are the last cover-engine snapshot observed.
	CacheHits, CacheMisses, CacheEvictions int64
	CacheSize                              int
	// Attempts counts det-k-decomp width attempts.
	Attempts int
	// FinalWidth, FinalLowerBound, Exact, Stop and Elapsed mirror the
	// algo_stop event.
	FinalWidth      int
	FinalLowerBound int
	Exact           bool
	Stop            string
	Elapsed         time.Duration
}

// NewRunStats returns an empty aggregator.
func NewRunStats() *RunStats { return &RunStats{} }

// Record implements Recorder.
func (s *RunStats) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case KindStart:
		s.Algo, s.N, s.M = e.Algo, e.N, e.M
	case KindImprove:
		s.Timeline = append(s.Timeline, WidthPoint{
			T: e.T, Width: e.Width, Nodes: e.Nodes,
			Evaluations: e.Evaluations, Generation: e.Generation,
		})
	case KindLowerBound:
		s.LowerBounds = append(s.LowerBounds, WidthPoint{
			T: e.T, Width: e.LowerBound, Nodes: e.Nodes,
		})
	case KindCheckpoint:
		s.Checkpoints++
		if e.Nodes > s.Expansions {
			s.Expansions = e.Nodes
		}
		if e.Open > s.MaxOpen {
			s.MaxOpen = e.Open
		}
		if e.MaxOpen > s.MaxOpen {
			s.MaxOpen = e.MaxOpen
		}
		if e.Closed > s.MaxClosed {
			s.MaxClosed = e.Closed
		}
		if e.Depth > s.MaxDepth {
			s.MaxDepth = e.Depth
		}
		if e.Backtracks > s.Backtracks {
			s.Backtracks = e.Backtracks
		}
	case KindMemSample:
		s.MemSamples++
		if e.HeapAlloc > s.MaxHeapAlloc {
			s.MaxHeapAlloc = e.HeapAlloc
		}
		if e.HeapSys > s.MaxHeapSys {
			s.MaxHeapSys = e.HeapSys
		}
		if e.NumGC > s.NumGC {
			s.NumGC = e.NumGC
		}
	case KindGeneration:
		if e.Generation > s.Generations {
			s.Generations = e.Generation
		}
		if e.Evaluations > s.Evaluations {
			s.Evaluations = e.Evaluations
		}
		if e.Island == 0 || e.Generation >= s.Generations {
			s.WidthStd, s.DistinctWidths = e.WidthStd, e.DistinctWidths
		}
	case KindCoverCache:
		s.CacheHits, s.CacheMisses = e.CacheHits, e.CacheMisses
		s.CacheEvictions, s.CacheSize = e.CacheEvictions, e.CacheSize
	case KindAttempt:
		s.Attempts++
	case KindStop:
		s.FinalWidth, s.FinalLowerBound = e.Width, e.LowerBound
		s.Exact, s.Stop, s.Elapsed = e.Exact, e.Stop, e.T
		if e.Nodes > s.Expansions {
			s.Expansions = e.Nodes
		}
		if e.Evaluations > s.Evaluations {
			s.Evaluations = e.Evaluations
		}
		if e.MaxOpen > s.MaxOpen {
			s.MaxOpen = e.MaxOpen
		}
	}
}

// Snapshot returns a copy of the statistics safe to read while the run is
// still recording.
func (s *RunStats) Snapshot() *RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := &RunStats{
		Algo: s.Algo, N: s.N, M: s.M,
		Expansions: s.Expansions, Evaluations: s.Evaluations,
		Generations: s.Generations, Checkpoints: s.Checkpoints,
		MaxOpen: s.MaxOpen, MaxClosed: s.MaxClosed,
		MaxDepth: s.MaxDepth, Backtracks: s.Backtracks,
		WidthStd: s.WidthStd, DistinctWidths: s.DistinctWidths,
		MemSamples: s.MemSamples, MaxHeapAlloc: s.MaxHeapAlloc,
		MaxHeapSys: s.MaxHeapSys, NumGC: s.NumGC,
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses,
		CacheEvictions: s.CacheEvictions, CacheSize: s.CacheSize,
		Attempts:   s.Attempts,
		FinalWidth: s.FinalWidth, FinalLowerBound: s.FinalLowerBound,
		Exact: s.Exact, Stop: s.Stop, Elapsed: s.Elapsed,
	}
	cp.Timeline = append([]WidthPoint(nil), s.Timeline...)
	cp.LowerBounds = append([]WidthPoint(nil), s.LowerBounds...)
	return cp
}

// CheckTimeline verifies the anytime-width contract: the timeline is
// non-empty, non-increasing in width and non-decreasing in time. It returns
// nil when the contract holds.
//
// test-only: the anytime-contract check of the obs and core tests.
func (s *RunStats) CheckTimeline() error {
	snap := s.Snapshot()
	if len(snap.Timeline) == 0 {
		return fmt.Errorf("obs: empty width timeline")
	}
	for i := 1; i < len(snap.Timeline); i++ {
		prev, cur := snap.Timeline[i-1], snap.Timeline[i]
		if cur.Width > prev.Width {
			return fmt.Errorf("obs: timeline width increased at point %d: %d -> %d", i, prev.Width, cur.Width)
		}
		if cur.T < prev.T {
			return fmt.Errorf("obs: timeline time decreased at point %d: %v -> %v", i, prev.T, cur.T)
		}
	}
	return nil
}

// Summary renders a human-readable multi-line report (the -stats output of
// cmd/decompose).
func (s *RunStats) Summary() string {
	snap := s.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "run stats: %s on %d vertices / %d edges\n", snap.Algo, snap.N, snap.M)
	fmt.Fprintf(&b, "  effort: %d expansions, %d evaluations, %d generations, %d checkpoints, %v\n",
		snap.Expansions, snap.Evaluations, snap.Generations, snap.Checkpoints,
		snap.Elapsed.Round(time.Millisecond))
	if snap.MaxOpen > 0 {
		fmt.Fprintf(&b, "  open list: max %d states", snap.MaxOpen)
		if snap.MaxClosed > 0 {
			fmt.Fprintf(&b, ", dedup set max %d", snap.MaxClosed)
		}
		fmt.Fprintf(&b, "\n")
	}
	if snap.MaxDepth > 0 || snap.Backtracks > 0 {
		fmt.Fprintf(&b, "  search shape: max depth %d, %d backtracks\n", snap.MaxDepth, snap.Backtracks)
	}
	if snap.DistinctWidths > 0 {
		fmt.Fprintf(&b, "  diversity: width stddev %.2f, %d distinct widths in last generation\n",
			snap.WidthStd, snap.DistinctWidths)
	}
	if snap.MemSamples > 0 {
		fmt.Fprintf(&b, "  memory: peak heap %.1f MiB in use / %.1f MiB from OS, %d GC cycles (%d samples)\n",
			float64(snap.MaxHeapAlloc)/(1<<20), float64(snap.MaxHeapSys)/(1<<20),
			snap.NumGC, snap.MemSamples)
	}
	if snap.Attempts > 0 {
		fmt.Fprintf(&b, "  det-k attempts: %d\n", snap.Attempts)
	}
	if snap.CacheHits+snap.CacheMisses > 0 {
		total := snap.CacheHits + snap.CacheMisses
		fmt.Fprintf(&b, "  cover cache: %d hits / %d misses (%.1f%% hit rate), %d evictions, %d resident bags\n",
			snap.CacheHits, snap.CacheMisses, 100*float64(snap.CacheHits)/float64(total),
			snap.CacheEvictions, snap.CacheSize)
	}
	fmt.Fprintf(&b, "  width timeline (%d improvements):\n", len(snap.Timeline))
	for _, p := range snap.Timeline {
		fmt.Fprintf(&b, "    t=%-12v width=%-4d nodes=%-10d evals=%-10d gen=%d\n",
			p.T.Round(time.Microsecond), p.Width, p.Nodes, p.Evaluations, p.Generation)
	}
	if len(snap.LowerBounds) > 0 {
		fmt.Fprintf(&b, "  lower-bound timeline (%d improvements):\n", len(snap.LowerBounds))
		for _, p := range snap.LowerBounds {
			fmt.Fprintf(&b, "    t=%-12v lb=%-4d nodes=%d\n", p.T.Round(time.Microsecond), p.Width, p.Nodes)
		}
	}
	return b.String()
}
