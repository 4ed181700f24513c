package setcover

import (
	"math/rand"
	"sync"
	"testing"

	"hypertree/internal/obs"
)

// collectRec gathers events under a lock, for sampling assertions.
type collectRec struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collectRec) Record(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectRec) snapshot() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// CacheStats must be readable while covers run — the counters are atomics and
// the size/eviction reads take the cache lock, so this passes under -race.
func TestEngineStatsRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHypergraph(rng, 40, 60, 5)
	eng := NewEngine(h, 64) // small capacity so evictions happen under load
	eng.SetRecorder(obs.Noop, 100)
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			sc := eng.NewScratch()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				bag := randomBag(r, h.N())
				eng.GreedySize(sc, bag, r)
				eng.ExactSizeCapped(sc, bag, 3, nil)
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { workers.Wait(); close(done) }()
	for {
		s := eng.CacheStats()
		if s.Hits < 0 || s.Misses < 0 || s.Evictions < 0 || s.Size < 0 {
			t.Fatalf("negative counters: %+v", s)
		}
		select {
		case <-done:
			if s := eng.CacheStats(); s.Hits+s.Misses == 0 {
				t.Fatalf("no cover queries recorded: %+v", s)
			}
			return
		default:
		}
	}
}

// With sampleEvery=1 every non-empty cover query emits one cumulative
// cover_cache snapshot; detaching the recorder stops the stream.
func TestEngineRecorderSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHypergraph(rng, 30, 40, 4)
	eng := NewEngine(h, -1)
	rec := &collectRec{}
	eng.SetRecorder(rec, 1)
	sc := eng.NewScratch()
	const queries = 50
	for i := 0; i < queries; i++ {
		eng.GreedySize(sc, randomBag(rng, h.N()), rng)
	}
	events := rec.snapshot()
	if len(events) != queries {
		t.Fatalf("sampleEvery=1: got %d events for %d queries", len(events), queries)
	}
	var prev obs.Event
	for i, e := range events {
		if e.Kind != obs.KindCoverCache {
			t.Fatalf("event %d has kind %q", i, e.Kind)
		}
		if e.CacheHits < prev.CacheHits || e.CacheMisses < prev.CacheMisses ||
			e.CacheEvictions < prev.CacheEvictions || e.T < prev.T {
			t.Fatalf("cumulative snapshot went backwards at %d: %+v -> %+v", i, prev, e)
		}
		prev = e
	}
	// The sampling counter sits before the cache lookup, so the snapshot
	// stream covers all queries: the last event is at most one query behind.
	s := eng.CacheStats()
	if last := events[len(events)-1]; last.CacheHits+last.CacheMisses < s.Hits+s.Misses-1 {
		t.Fatalf("last snapshot %+v lags final stats %+v", last, s)
	}

	eng.SetRecorder(nil, 0)
	for i := 0; i < 10; i++ {
		eng.GreedySize(sc, randomBag(rng, h.N()), rng)
	}
	if got := len(rec.snapshot()); got != queries {
		t.Fatalf("detached recorder still received events: %d -> %d", queries, got)
	}
}

// A coarser interval emits one event per sampleEvery queries.
func TestEngineRecorderSamplingInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := randomHypergraph(rng, 20, 30, 4)
	eng := NewEngine(h, -1)
	rec := &collectRec{}
	eng.SetRecorder(rec, 10)
	sc := eng.NewScratch()
	for i := 0; i < 95; i++ {
		eng.GreedySize(sc, randomBag(rng, h.N()), rng)
	}
	if got := len(rec.snapshot()); got != 9 {
		t.Fatalf("sampleEvery=10 over 95 queries: got %d events, want 9", got)
	}
}

// BenchmarkNoopRecorder is the ISSUE's bench guard: the cover hot path with
// instrumentation disabled (nil recorder, one branch) versus attached at the
// maximal sampling rate with a discarding recorder. The disabled delta must
// stay within noise; compare with
//
//	go test -run - -bench NoopRecorder -count 10 ./internal/setcover | benchstat
func BenchmarkNoopRecorder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randomHypergraph(rng, 60, 80, 5)
	bags := make([][]int, 64)
	for i := range bags {
		bags[i] = randomBag(rng, h.N())
	}
	run := func(b *testing.B, eng *Engine) {
		sc := eng.NewScratch()
		r := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.GreedySize(sc, bags[i%len(bags)], r)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, NewEngine(h, -1))
	})
	b.Run("noop-every-1", func(b *testing.B) {
		eng := NewEngine(h, -1)
		eng.SetRecorder(obs.Noop, 1)
		run(b, eng)
	})
	b.Run("noop-sampled", func(b *testing.B) {
		eng := NewEngine(h, -1)
		eng.SetRecorder(obs.Noop, DefaultCoverSampleEvery)
		run(b, eng)
	})
}
