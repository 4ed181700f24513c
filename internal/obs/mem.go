package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// DefaultMemSampleEvery is how many budget checkpoint observer rounds pass
// between mem_sample events. Observer rounds come at most once per
// millisecond of run time, so the default cadence is at most one
// runtime.ReadMemStats per ~16 ms per sampler — far below the
// stop-the-world cost mattering, dense enough to catch a heap blow-up while
// it happens rather than at the OOM kill.
const DefaultMemSampleEvery = 16

// MemSampler emits sampled mem_sample events: every everyth Sample call
// reads runtime.MemStats and records one snapshot. It rides the budget
// checkpoint path, so observing memory adds no new hot-path branches; a nil
// *MemSampler is valid and disabled. Safe for concurrent use (observer
// rounds fire from portfolio member and parallel GA and SAIGA scoring
// worker goroutines).
type MemSampler struct {
	every int64
	n     atomic.Int64
}

// NewMemSampler returns a sampler firing every everyth call; non-positive
// selects DefaultMemSampleEvery.
func NewMemSampler(every int64) *MemSampler {
	if every <= 0 {
		every = DefaultMemSampleEvery
	}
	return &MemSampler{every: every}
}

// Sample counts one checkpoint and, on the sampling boundary, records a
// mem_sample snapshot at run time t.
func (m *MemSampler) Sample(rec Recorder, t time.Duration) {
	if m == nil || rec == nil {
		return
	}
	if m.n.Add(1)%m.every != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.Record(Event{
		Kind: KindMemSample, T: t,
		HeapAlloc:   ms.HeapAlloc,
		HeapSys:     ms.HeapSys,
		HeapObjects: ms.HeapObjects,
		NumGC:       ms.NumGC,
		GCPause:     time.Duration(ms.PauseTotalNs),
		Goroutines:  runtime.NumGoroutine(),
	})
}

// Checkpointer returns the stock budget-checkpoint observer: one checkpoint
// event per observer round plus sampled mem_sample snapshots. Its
// signature matches budget.CheckpointFunc structurally (this package does
// not import the budget package), so callers pass it straight to
// budget.B.OnCheckpoint.
func Checkpointer(rec Recorder) func(nodes int64, elapsed time.Duration) {
	ms := NewMemSampler(0)
	return func(nodes int64, elapsed time.Duration) {
		rec.Record(Event{Kind: KindCheckpoint, T: elapsed, Nodes: nodes})
		ms.Sample(rec, elapsed)
	}
}
