package setcover

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestEngineShardedCacheConcurrent hammers one shared engine from several
// goroutines, each with its own Scratch (the parallel searches' sharing
// pattern), and checks that the sharded cache returns the same deterministic
// exact sizes the serial engine computes and never exceeds its capacity.
func TestEngineShardedCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomHypergraph(rng, 40, 60, 5)

	// Serial reference answers for a fixed bag set.
	bags := make([][]int, 200)
	for i := range bags {
		bags[i] = randomBag(rng, 40)
	}
	ref := NewEngine(h, 0)
	refSc := ref.NewScratch()
	want := make([]int, len(bags))
	for i, bag := range bags {
		want[i] = ref.ExactSizeCapped(refSc, bag, 16, nil)
	}

	eng := NewEngine(h, 64)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := eng.NewScratch()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for it := 0; it < 40; it++ {
				for i, bag := range bags {
					if got := eng.ExactSizeCapped(sc, bag, 16, nil); got != want[i] {
						errs <- fmt.Errorf("worker %d bag %d: exact size %d, want %d", w, i, got, want[i])
						return
					}
					// Greedy sizes are rng-dependent upper bounds; just
					// exercise the cached path concurrently.
					if g := eng.GreedySize(sc, bag, rng); want[i] >= 0 && g < want[i] {
						errs <- fmt.Errorf("worker %d bag %d: greedy %d below exact %d", w, i, g, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := eng.CacheStats()
	if s.Size > 64 {
		t.Fatalf("sharded cache size %d exceeds capacity 64", s.Size)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("cache traffic looks wrong: hits=%d misses=%d", s.Hits, s.Misses)
	}
}

// TestEngineShardedCacheTinyCapacities: the shard count shrinks to the
// capacity, so even capacity 1 stays within bounds.
func TestEngineShardedCacheTinyCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomHypergraph(rng, 20, 30, 4)
	for _, capacity := range []int{1, 2, 3, 5, 16, 17} {
		eng := NewEngine(h, capacity)
		sc := eng.NewScratch()
		for i := 0; i < 300; i++ {
			eng.GreedySize(sc, randomBag(rng, 20), rng)
		}
		if s := eng.CacheStats(); s.Size > capacity {
			t.Fatalf("capacity %d: cache holds %d entries", capacity, s.Size)
		}
	}
}

// TestEngineCacheHitZeroAlloc pins the memoized fast path: once a bag's
// cover size is cached, re-querying it must not allocate (the hot path of
// every width evaluation inside the searches).
func TestEngineCacheHitZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	h := randomHypergraph(rng, 30, 45, 5)
	eng := NewEngine(h, DefaultCacheCapacity)
	sc := eng.NewScratch()
	bag := randomBag(rng, 30)
	eng.GreedySize(sc, bag, rng)
	eng.ExactSizeCapped(sc, bag, 16, nil)
	if n := testing.AllocsPerRun(100, func() { eng.GreedySize(sc, bag, rng) }); n > 0 {
		t.Errorf("GreedySize cache hit allocates %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { eng.ExactSizeCapped(sc, bag, 16, nil) }); n > 0 {
		t.Errorf("ExactSizeCapped cache hit allocates %.1f times per op", n)
	}
}
