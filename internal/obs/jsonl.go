package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONLWriter is the trace sink: one JSON object per line per event,
// append-only, safe for concurrent use. The format is documented in
// OBSERVABILITY.md and validated by ValidateTrace; `cmd/decompose -trace`
// writes it and `make trace-smoke` checks it.
type JSONLWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	out io.Writer
	err error
}

// NewJSONLWriter wraps w. Call Flush (or Close, when w is also a Closer)
// before reading the trace back; write errors latch and are reported there.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w), out: w}
}

// Record implements Recorder. Marshalling cannot fail for Event values; I/O
// errors latch into the writer and surface from Flush/Close.
func (j *JSONLWriter) Record(e Event) {
	data, err := json.Marshal(e)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		// Event is a flat struct of marshallable fields; this is unreachable,
		// but latch rather than panic inside an instrumentation path.
		if j.err == nil {
			j.err = err
		}
		return
	}
	if j.err != nil {
		return
	}
	if _, err := j.bw.Write(data); err != nil {
		j.err = err
		return
	}
	if err := j.bw.WriteByte('\n'); err != nil {
		j.err = err
	}
}

// Flush drains the buffer and returns the first error seen by any write.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close flushes and closes the underlying writer when it is an io.Closer.
// The first error wins: a trace cut short by a full disk is reported, not
// silently truncated.
func (j *JSONLWriter) Close() error {
	err := j.Flush()
	if c, ok := j.out.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// TraceSummary is what ValidateTrace learned about a trace, for reporting.
type TraceSummary struct {
	Events       int
	Starts       int
	Stops        int
	Improvements int
	Checkpoints  int
	// Unknown counts events whose kind is outside the taxonomy. The default
	// validation tolerates them (the schema is forward-compatible: a newer
	// writer may emit kinds this build does not know); strict mode rejects
	// them.
	Unknown int
	// Algos lists the distinct run labels seen, in first-seen order.
	Algos []string
}

// ValidateTrace checks a JSONL trace against the schema: every line is a
// JSON object with non-negative t_ns; the file contains at least one
// algo_start and one algo_stop; and within each run scope — the (req, algo
// label) pair, so a request-stamped daemon trace holding many runs of one
// algorithm validates per request — the improve events are non-increasing
// in width and non-decreasing in time. Unknown fields are allowed, and
// unknown event kinds are counted in the summary rather than rejected (the
// schema is forward-compatible). It returns a summary of what it saw.
func ValidateTrace(r io.Reader) (*TraceSummary, error) {
	return validateTrace(r, false)
}

// ValidateTraceStrict is ValidateTrace with two extra rejections for
// CI-pinned traces: event kinds outside the taxonomy are errors, and t_ns
// must be non-decreasing across each run (from one algo_start to the next).
//
// Strict ordering assumes a single-threaded writer. Concurrent emitters
// (portfolio members, parallel GA workers) timestamp events before taking the
// sink's lock, so adjacent lines can interleave a few microseconds out of
// order; validate those traces with the default mode instead.
func ValidateTraceStrict(r io.Reader) (*TraceSummary, error) {
	return validateTrace(r, true)
}

func validateTrace(r io.Reader, strict bool) (*TraceSummary, error) {
	sum := &TraceSummary{}
	seenAlgo := map[string]bool{}
	type runState struct {
		width int
		t     int64
		any   bool
	}
	improve := map[string]*runState{} // by req + algo label ("" + "" for unlabeled CLI runs)
	currentAlgo := ""
	var lastT int64 // strict mode: high-water t_ns within the current run

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e struct {
			Kind  Kind   `json:"kind"`
			T     int64  `json:"t_ns"`
			Algo  string `json:"algo"`
			Req   string `json:"req"`
			Width int    `json:"width"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d is not a JSON event: %w", line, err)
		}
		if !ValidKind(e.Kind) {
			if strict {
				return nil, fmt.Errorf("obs: trace line %d has unknown kind %q", line, e.Kind)
			}
			sum.Unknown++
		}
		if e.T < 0 {
			return nil, fmt.Errorf("obs: trace line %d has negative t_ns %d", line, e.T)
		}
		if strict {
			if e.Kind == KindStart {
				lastT = 0 // a new run's clock restarts
			}
			if e.T < lastT {
				return nil, fmt.Errorf("obs: trace line %d: t_ns decreased %d -> %d within a run", line, lastT, e.T)
			}
			lastT = e.T
		}
		sum.Events++
		switch e.Kind {
		case KindStart:
			sum.Starts++
			currentAlgo = e.Algo
			if e.Algo != "" && !seenAlgo[e.Algo] {
				seenAlgo[e.Algo] = true
				sum.Algos = append(sum.Algos, e.Algo)
			}
		case KindStop:
			sum.Stops++
		case KindCheckpoint:
			sum.Checkpoints++
		case KindImprove:
			sum.Improvements++
			label := e.Algo
			if label == "" {
				label = currentAlgo
			}
			// Request-stamped traces (a daemon serving many runs of the same
			// algorithm into one stream) scope the anytime contract per
			// request; unstamped traces keep the per-label scope.
			key := e.Req + "\x00" + label
			st := improve[key]
			if st == nil {
				st = &runState{}
				improve[key] = st
			}
			if st.any {
				if e.Width > st.width {
					return nil, fmt.Errorf("obs: trace line %d: improve width increased %d -> %d (run %q)",
						line, st.width, e.Width, label)
				}
				if e.T < st.t {
					return nil, fmt.Errorf("obs: trace line %d: improve time decreased %d -> %d (run %q)",
						line, st.t, e.T, label)
				}
			}
			st.width, st.t, st.any = e.Width, e.T, true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if sum.Events == 0 {
		return nil, fmt.Errorf("obs: trace is empty")
	}
	if sum.Starts == 0 {
		return nil, fmt.Errorf("obs: trace has no algo_start event")
	}
	if sum.Stops == 0 {
		return nil, fmt.Errorf("obs: trace has no algo_stop event")
	}
	return sum, nil
}

// ValidateTraceFile is ValidateTrace over a file path.
func ValidateTraceFile(path string) (*TraceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ValidateTrace(f)
}

// ValidateTraceFileStrict is ValidateTraceStrict over a file path.
func ValidateTraceFileStrict(path string) (*TraceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ValidateTraceStrict(f)
}
