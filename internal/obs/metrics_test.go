package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestEventCountersConcurrent(t *testing.T) {
	c := NewEventCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Record(Event{Kind: KindCheckpoint})
				c.Record(Event{Kind: KindImprove, Width: 4})
			}
		}()
	}
	wg.Wait()
	counts := c.Counts()
	if got := counts[string(KindCheckpoint)]; got != 8000 {
		t.Fatalf("checkpoint count = %d, want 8000", got)
	}
	if got := counts[string(KindImprove)]; got != 8000 {
		t.Fatalf("improve count = %d, want 8000", got)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total != 16000 {
		t.Fatalf("total = %d, want 16000", total)
	}
}

func TestEventCountersUnknownAndCache(t *testing.T) {
	c := NewEventCounters()
	if c.CacheHitRatio() != -1 {
		t.Fatal("ratio before any snapshot should be -1")
	}
	c.Record(Event{Kind: "mystery"})
	c.Record(Event{Kind: KindCoverCache, CacheHits: 90, CacheMisses: 10})
	c.Record(Event{Kind: KindCoverCache, CacheHits: 150, CacheMisses: 50}) // latest wins
	if got := c.CacheHitRatio(); got != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", got)
	}
	if c.Counts()["unknown"] != 1 {
		t.Fatalf("unknown not counted: %v", c.Counts())
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	c := NewEventCounters()
	c.Record(Event{Kind: KindStart, Algo: "bb-ghw"})
	c.Record(Event{Kind: KindImprove, Width: 3})
	c.Record(Event{Kind: KindCoverCache, CacheHits: 3, CacheMisses: 1})
	var buf bytes.Buffer
	if err := c.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hypertree_obs_events_total{kind="improve"} 1`,
		`hypertree_obs_events_total{kind="algo_start"} 1`,
		`hypertree_obs_events_total{kind="checkpoint"} 0`,
		"hypertree_cover_cache_hits 3",
		"hypertree_cover_cache_hit_ratio 0.75",
		"# TYPE hypertree_obs_events_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// Every taxonomy kind appears even at zero, so dashboards see a stable
	// series set.
	for _, k := range Kinds {
		if !strings.Contains(out, `kind="`+string(k)+`"`) {
			t.Fatalf("kind %s missing:\n%s", k, out)
		}
	}
}
