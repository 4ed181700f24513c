package server

import (
	"encoding/json"
	"time"

	"hypertree/internal/obs"
)

// The request lifecycle phases, in serving order. Every request is timed
// through the phases it reaches; each finished phase feeds the per-phase
// latency histogram, lands in the envelope's timings block, and is emitted
// as a span event into the trace — the three consumers of one measurement.
type reqPhase int

const (
	// phaseQueueWait: from entering the admission queue to holding a worker
	// slot. The first thing to check when latency spikes — a saturated pool
	// shows up here long before it shows up anywhere else.
	phaseQueueWait reqPhase = iota
	// phaseParse: decoding the payload into a hypergraph (inside the worker
	// slot, so parser CPU stays pool-bounded).
	phaseParse
	// phaseCache: the exact-result cache lookup (before admission — a hit
	// never spends a worker slot).
	phaseCache
	// phaseSolve: core.Decompose, the dominant phase of any honest request.
	phaseSolve
	// phaseCompile: compiling the decomposition into an engine.Plan
	// (/query only) — bag materialization, Yannakakis reduction, index
	// construction. Paid once per instance; plan-cache hits skip it.
	phaseCompile
	// phaseQuery: running the request's query batch against the compiled
	// plan (/query only). The steady-state cost of a hot instance.
	phaseQuery
	// phaseEncode: building the response envelope, including tree rendering
	// and result-cache population. The final socket write is excluded — once
	// bytes leave, there is nowhere left to record.
	phaseEncode

	numPhases
)

// phaseNames are the wire names of the phases: span events, timings JSON
// keys (suffixed _ns) and the phase label of the /metrics summaries all use
// them.
var phaseNames = [numPhases]string{"queue_wait", "parse", "cache", "solve", "compile", "query", "encode"}

// Timings is the per-request phase breakdown stamped onto every response
// envelope: where the request's wall-clock went, in nanoseconds. Phases a
// request never reached are omitted; Total is always present and measures
// handler entry to response construction (the socket write is excluded).
type Timings struct {
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	Parse     time.Duration `json:"parse_ns,omitempty"`
	Cache     time.Duration `json:"cache_ns,omitempty"`
	Solve     time.Duration `json:"solve_ns,omitempty"`
	Compile   time.Duration `json:"compile_ns,omitempty"`
	Query     time.Duration `json:"query_ns,omitempty"`
	Encode    time.Duration `json:"encode_ns,omitempty"`
	Total     time.Duration `json:"total_ns"`
}

// endpoint is the serving path a request came in on.
type endpoint uint8

const (
	epDecompose endpoint = iota
	// epQuery requests also feed the hypertree_query_* families.
	epQuery
)

// lifecycle times one request through its phases. It is confined to the
// request's handler goroutine; only the sinks it feeds (histograms, the
// span recorder, the event capture) are shared.
type lifecycle struct {
	s    *Server
	id   string
	ep   endpoint
	algo string
	// remote is the client's network address (http.Request.RemoteAddr),
	// carried to the access log so lines are attributable to callers.
	remote string
	start  time.Time
	// touched marks phases that ran (a 0ns phase is still a phase; an
	// unreached one is absent from the timings block).
	phases  [numPhases]time.Duration
	touched [numPhases]bool
	// spans receives the span events: obs counters + the request-stamped
	// trace + the slow-ring capture. Never nil (the counters always exist).
	spans obs.Recorder
	// capture buffers the request's full event stream for the slow ring;
	// nil when slow-run retention is disabled.
	capture *eventCapture
}

func (s *Server) newLifecycle(id, remote string, ep endpoint) *lifecycle {
	// algo stays empty until parseParams resolves one, so spans emitted for
	// pre-parse rejections match the envelope (no algorithm ever chosen).
	lc := &lifecycle{
		s:      s,
		id:     id,
		ep:     ep,
		remote: remote,
		start:  time.Now(),
	}
	if s.slow != nil {
		lc.capture = &eventCapture{}
	}
	lc.spans = obs.Tee(s.counters, obs.WithReq(s.cfg.Trace, id), lc.capture.recorder())
	return lc
}

// phase records phase p as having taken d: envelope breakdown, per-phase
// histogram, span event. Each phase runs at most once per request.
func (lc *lifecycle) phase(p reqPhase, d time.Duration) {
	if d < 0 {
		d = 0
	}
	lc.phases[p] = d
	lc.touched[p] = true
	lc.s.phaseHist[p].Observe(d)
	lc.emitSpan(phaseNames[p], d, "")
}

// finish closes the lifecycle of a request answered as rec describes: the
// response counter and the per-outcome request histogram (plus the
// hypertree_query_* pair for /query requests), the total span, the
// slow-ring offer and the access-log line. It returns the timings block for
// the envelope. Called exactly once per request, before the response is
// written, so every response is counted where it is timed.
func (lc *lifecycle) finish(rec accessRecord) *Timings {
	s := lc.s
	total := time.Since(lc.start)
	if i := outcomeIndex(rec.Outcome); i >= 0 {
		s.outcomeCount[i].Add(1)
		s.reqHist[i].Observe(total)
		if lc.ep == epQuery {
			s.queryOutcome[i].Add(1)
		}
	}
	if lc.ep == epQuery {
		s.queryHist.Observe(total)
	}
	lc.emitSpan("total", total, rec.Outcome)
	tm := &Timings{Total: total}
	for p := reqPhase(0); p < numPhases; p++ {
		if !lc.touched[p] {
			continue
		}
		switch p {
		case phaseQueueWait:
			tm.QueueWait = lc.phases[p]
		case phaseParse:
			tm.Parse = lc.phases[p]
		case phaseCache:
			tm.Cache = lc.phases[p]
		case phaseSolve:
			tm.Solve = lc.phases[p]
		case phaseCompile:
			tm.Compile = lc.phases[p]
		case phaseQuery:
			tm.Query = lc.phases[p]
		case phaseEncode:
			tm.Encode = lc.phases[p]
		}
	}
	rec.Timings = tm
	s.slow.offer(lc, &rec)
	s.logAccess(lc, rec)
	return tm
}

// emitSpan records one span event. T is request-relative (the moment the
// phase ended); solver events inside the same request are budget-relative —
// OBSERVABILITY.md documents the two clocks.
func (lc *lifecycle) emitSpan(phase string, d time.Duration, outcome Outcome) {
	lc.spans.Record(obs.Event{
		Kind:    obs.KindSpan,
		T:       time.Since(lc.start),
		Req:     lc.id,
		Algo:    lc.algo,
		Phase:   phase,
		Dur:     d,
		Outcome: string(outcome),
	})
}

// waitedMS is the envelope's queue-wait field: 0 until the queue phase ran.
func (lc *lifecycle) waitedMS() int64 {
	return lc.phases[phaseQueueWait].Milliseconds()
}

// accessRecord is one line of the structured access log: everything an
// operator greps for without opening a trace file. Field order is the JSON
// struct order, so lines are uniform and cut-able. Each exit builds one and
// hands it to finish, which also files the slow-ring entry from it.
type accessRecord struct {
	Time    string  `json:"time"`
	Req     string  `json:"req"`
	Remote  string  `json:"remote,omitempty"`
	Outcome Outcome `json:"outcome"`
	Status  int     `json:"status"`
	Algo    string  `json:"algo,omitempty"`
	// Winner is the algo label of the attribution ledger's winning member:
	// for portfolio runs, which racer actually produced the answer (Algo
	// says only "portfolio"); for serial runs it repeats Algo.
	Winner string `json:"winner,omitempty"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
	Width  int    `json:"width,omitempty"`
	Exact  bool   `json:"exact,omitempty"`
	Stop   string `json:"stop,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Stream bool   `json:"stream,omitempty"`
	// WaitedMS and ElapsedMS mirror the envelope: queue wait and the
	// request's total wall-clock (not just the solve).
	WaitedMS  int64    `json:"waited_ms"`
	ElapsedMS int64    `json:"elapsed_ms"`
	Timings   *Timings `json:"timings,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// logAccess writes rec, completed with the request's identity and queue
// wait, as one JSON line. Writes are serialized under accessMu, and each
// line is a single Write call, so concurrent requests never interleave
// bytes. Called before the response is sent: a log reader that sees a
// client's response also sees its line.
func (s *Server) logAccess(lc *lifecycle, rec accessRecord) {
	if s.cfg.AccessLog == nil {
		return
	}
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	rec.Req = lc.id
	rec.Remote = lc.remote
	rec.Algo = lc.algo
	rec.WaitedMS = lc.waitedMS()
	rec.ElapsedMS = rec.Timings.Total.Milliseconds()
	line, err := json.Marshal(rec)
	if err != nil {
		return // accessRecord is a flat struct; unreachable
	}
	line = append(line, '\n')
	s.accessMu.Lock()
	defer s.accessMu.Unlock()
	// A broken log sink must not fail serving; the error is dropped by
	// design (the log is advisory, the envelope is the contract).
	_, _ = s.cfg.AccessLog.Write(line)
}
