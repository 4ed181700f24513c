package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/obs"
)

// DefaultSlowN is the slow-ring capacity when Config.SlowN is 0: how many
// slowest requests retain their full event trace for post-hoc diagnosis.
const DefaultSlowN = 8

// slowEventCap bounds the events buffered per request for the slow ring.
// Checkpoint observer rounds run at most once per millisecond, each emitting
// one checkpoint per observer (the default portfolio race has three), so a 150 ms race
// buffers a few hundred events and a multi-second solve a few thousand;
// beyond the cap we count drops instead of growing without bound.
const slowEventCap = 4096

// runInfo is one in-flight request in the live registry. The handler
// goroutine writes identity once at registration; the solver goroutine
// updates the gauges through Record (it is teed into the run's Recorder, so
// anytime improvements and budget checkpoints feed it for free); /debug/runs
// readers load them — hence everything mutable is atomic.
type runInfo struct {
	id      string
	algo    string
	start   time.Time
	running atomic.Bool // false while waiting for a worker slot
	waitNS  atomic.Int64
	width   atomic.Int64 // best anytime width so far; 0 = none yet
	lower   atomic.Int64 // best proven lower bound so far
	nodes   atomic.Int64 // latest checkpoint node count

	// members holds per-member gauges for portfolio runs, keyed by the algo
	// label member events are stamped with. The map only grows (one entry
	// per racer), so the mutex guards insertion; the gauges themselves stay
	// atomic for the same writer/reader split as the top-level ones.
	memberMu sync.Mutex
	members  map[string]*memberGauges
}

// memberGauges mirrors the top-level width/lower/nodes gauges for one
// portfolio member, fed by that member's algo-stamped events.
type memberGauges struct {
	width atomic.Int64
	lower atomic.Int64
	nodes atomic.Int64
}

// Record implements obs.Recorder: the registry rides the existing event
// stream rather than adding solver hooks. Width keeps the minimum ever seen
// (portfolio members improve independently, so "latest" could regress);
// nodes and lower bound keep the maximum. Events stamped with a member algo
// (different from the request's own label — only portfolio racers are) also
// feed that member's row, so /debug/runs can show who is doing what
// mid-race.
func (ri *runInfo) Record(e obs.Event) {
	switch e.Kind {
	case obs.KindImprove:
		storeMin(&ri.width, int64(e.Width))
	case obs.KindLowerBound:
		storeMax(&ri.lower, int64(e.LowerBound))
	case obs.KindCheckpoint:
		storeMax(&ri.nodes, e.Nodes)
	default:
		return
	}
	if e.Algo == "" || e.Algo == ri.algo {
		return
	}
	mg := ri.member(e.Algo)
	switch e.Kind {
	case obs.KindImprove:
		storeMin(&mg.width, int64(e.Width))
	case obs.KindLowerBound:
		storeMax(&mg.lower, int64(e.LowerBound))
	case obs.KindCheckpoint:
		// Member checkpoints carry the member's attributed node count (its
		// budget view re-bases the observer), so the row gauges are the
		// live form of the ledger's per-member costs.
		storeMax(&mg.nodes, e.Nodes)
	}
}

func (ri *runInfo) member(algo string) *memberGauges {
	ri.memberMu.Lock()
	defer ri.memberMu.Unlock()
	if ri.members == nil {
		ri.members = make(map[string]*memberGauges)
	}
	mg := ri.members[algo]
	if mg == nil {
		mg = &memberGauges{}
		ri.members[algo] = mg
	}
	return mg
}

// storeMin lowers a to v unless a already holds a smaller non-zero value
// (0 means "unset", so the first store always wins).
func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur != 0 && cur <= v {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// inflightRegistry tracks requests between admission and response. The map
// only mutates at request boundaries (add/remove), never on the solver hot
// path, so a plain mutex is enough.
type inflightRegistry struct {
	mu sync.Mutex
	m  map[string]*runInfo
}

func (r *inflightRegistry) add(ri *runInfo) {
	r.mu.Lock()
	if r.m == nil {
		r.m = make(map[string]*runInfo)
	}
	r.m[ri.id] = ri
	r.mu.Unlock()
}

func (r *inflightRegistry) remove(id string) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}

func (r *inflightRegistry) snapshot() []*runInfo {
	r.mu.Lock()
	runs := make([]*runInfo, 0, len(r.m))
	for _, ri := range r.m {
		runs = append(runs, ri)
	}
	r.mu.Unlock()
	// Start-time order with the request id as tie-break: the map iteration
	// above is randomized, and two requests admitted within one clock tick
	// must not make consecutive /debug/runs reads disagree on order.
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].start.Equal(runs[j].start) {
			return runs[i].id < runs[j].id
		}
		return runs[i].start.Before(runs[j].start)
	})
	return runs
}

// RunStatus is one entry of GET /debug/runs: a point-in-time view of an
// in-flight request, gauges fed by the run's own event stream.
type RunStatus struct {
	Req   string `json:"req"`
	Algo  string `json:"algo"`
	State string `json:"state"` // "queued" (waiting for a slot) or "running"
	// ElapsedMS counts from admission; WaitedMS is the queue wait (still
	// growing while State is "queued": it reports elapsed so far).
	ElapsedMS int64 `json:"elapsed_ms"`
	WaitedMS  int64 `json:"waited_ms"`
	// Width is the current anytime best width (0 = no incumbent yet);
	// LowerBound the best proven bound; Nodes the latest checkpoint's
	// effort counter.
	Width      int   `json:"width,omitempty"`
	LowerBound int   `json:"lower_bound,omitempty"`
	Nodes      int64 `json:"nodes,omitempty"`
	// Members break a portfolio run's gauges down by racer, sorted by algo
	// label; absent for serial runs (the top-level gauges are the one
	// member).
	Members []MemberStatus `json:"members,omitempty"`
}

// MemberStatus is one portfolio member's live row inside a RunStatus: the
// same width/lower-bound/nodes gauges, scoped to that racer's algo-stamped
// events.
type MemberStatus struct {
	Algo       string `json:"algo"`
	Width      int    `json:"width,omitempty"`
	LowerBound int    `json:"lower_bound,omitempty"`
	Nodes      int64  `json:"nodes,omitempty"`
}

func (ri *runInfo) status(now time.Time) RunStatus {
	st := RunStatus{
		Req:        ri.id,
		Algo:       ri.algo,
		State:      "queued",
		ElapsedMS:  now.Sub(ri.start).Milliseconds(),
		WaitedMS:   now.Sub(ri.start).Milliseconds(),
		Width:      int(ri.width.Load()),
		LowerBound: int(ri.lower.Load()),
		Nodes:      ri.nodes.Load(),
	}
	if ri.running.Load() {
		st.State = "running"
		st.WaitedMS = time.Duration(ri.waitNS.Load()).Milliseconds()
	}
	ri.memberMu.Lock()
	for algo, mg := range ri.members {
		st.Members = append(st.Members, MemberStatus{
			Algo:       algo,
			Width:      int(mg.width.Load()),
			LowerBound: int(mg.lower.Load()),
			Nodes:      mg.nodes.Load(),
		})
	}
	ri.memberMu.Unlock()
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].Algo < st.Members[j].Algo })
	return st
}

// handleDebugRuns serves the live in-flight registry: what the daemon is
// doing right now, including each run's current anytime width mid-solve.
func (s *Server) handleDebugRuns(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	runs := s.registry.snapshot()
	out := struct {
		Inflight int         `json:"inflight"`
		Runs     []RunStatus `json:"runs"`
	}{Runs: make([]RunStatus, 0, len(runs))}
	for _, ri := range runs {
		out.Runs = append(out.Runs, ri.status(now))
	}
	out.Inflight = len(out.Runs)
	s.writeJSON(w, http.StatusOK, out)
}

// SlowRun is one retained outlier: the request's envelope essentials plus
// its full event trace (spans and solver events), so a P99 spike is
// diagnosable after the fact without having had tracing enabled.
type SlowRun struct {
	Req     string    `json:"req"`
	Algo    string    `json:"algo,omitempty"`
	Outcome Outcome   `json:"outcome"`
	Width   int       `json:"width,omitempty"`
	Stop    string    `json:"stop,omitempty"`
	Start   time.Time `json:"start"`
	// Elapsed is the request's total wall-clock (== timings.total_ns).
	Elapsed   time.Duration `json:"elapsed_ns"`
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	Timings   *Timings      `json:"timings,omitempty"`
	Events    []obs.Event   `json:"events,omitempty"`
	// DroppedEvents counts events beyond the per-request buffer cap.
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// slowRing retains the N slowest finished requests seen so far. Offers are
// rare (one per request) and the ring is tiny, so a mutex plus linear scan
// beats anything clever.
type slowRing struct {
	mu   sync.Mutex
	max  int
	runs []*SlowRun // unordered; snapshot sorts
}

func newSlowRing(n int) *slowRing {
	if n <= 0 {
		return nil
	}
	return &slowRing{max: n}
}

// offer retains the finished request lc, answered as rec describes, if the
// ring has room or it outlasts the current fastest member, which it evicts.
// The entry is built only once the ring admits it, so a request the ring
// turns away allocates nothing here.
func (r *slowRing) offer(lc *lifecycle, rec *accessRecord) {
	if r == nil {
		return
	}
	elapsed := rec.Timings.Total
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := len(r.runs)
	if slot == r.max {
		slot = 0
		for i, m := range r.runs {
			if m.Elapsed < r.runs[slot].Elapsed {
				slot = i
			}
		}
		if elapsed <= r.runs[slot].Elapsed {
			return
		}
	} else {
		r.runs = append(r.runs, nil)
	}
	run := &SlowRun{
		Req:       lc.id,
		Algo:      lc.algo,
		Outcome:   rec.Outcome,
		Width:     rec.Width,
		Stop:      rec.Stop,
		Start:     lc.start,
		Elapsed:   elapsed,
		QueueWait: lc.phases[phaseQueueWait],
		Timings:   rec.Timings,
	}
	run.Events, run.DroppedEvents = lc.capture.take()
	r.runs[slot] = run
}

// snapshot returns the retained runs, slowest first.
func (r *slowRing) snapshot() []*SlowRun {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*SlowRun, len(r.runs))
	copy(out, r.runs)
	r.mu.Unlock()
	// Slowest first, request id as tie-break, so repeated /debug/slow reads
	// of an unchanged ring are byte-identical.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Elapsed == out[j].Elapsed {
			return out[i].Req < out[j].Req
		}
		return out[i].Elapsed > out[j].Elapsed
	})
	return out
}

// SlowRuns returns the slowest retained requests, slowest first — the same
// data /debug/slow serves, exported so cmd/decomposed can dump it on drain.
func (s *Server) SlowRuns() []*SlowRun {
	return s.slow.snapshot()
}

// handleDebugSlow serves the slowest-N retained requests with their full
// event traces.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	runs := s.slow.snapshot()
	if runs == nil {
		runs = []*SlowRun{}
	}
	s.writeJSON(w, http.StatusOK, struct {
		Retained int        `json:"retained"`
		Runs     []*SlowRun `json:"runs"`
	}{Retained: len(runs), Runs: runs})
}

// eventCapture buffers one request's event stream for slow-ring retention.
// It must be cheap: a request is only known to be slow after it finishes,
// so every request pays for capture while the ring is enabled.
type eventCapture struct {
	mu      sync.Mutex
	events  []obs.Event
	dropped int
}

// recorder adapts a possibly-nil capture for obs.Tee: a typed-nil
// *eventCapture inside a Recorder interface would defeat Tee's nil
// skipping, so the conversion happens here, once.
func (c *eventCapture) recorder() obs.Recorder {
	if c == nil {
		return nil
	}
	return c
}

func (c *eventCapture) Record(e obs.Event) {
	c.mu.Lock()
	if len(c.events) < slowEventCap {
		c.events = append(c.events, e)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// take hands over the buffered events; the capture is dead afterwards.
func (c *eventCapture) take() ([]obs.Event, int) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ev, dropped := c.events, c.dropped
	c.events = nil
	return ev, dropped
}
