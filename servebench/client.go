package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of client connections: the machine has two cores,
// the daemon two workers, and client and daemon share the cores.
const conns = 2

// sample is one request of a window, as the client saw it. The response
// body is kept raw in its connection's arena and decoded after the window.
type sample struct {
	idx        int   // index into the input stream
	start, end int64 // ns since the window opened: send, last response byte
	status     int
	body       []byte
	err        error
	span       int64 // the request's span in a traced window, else 0
}

func (s *sample) latency() time.Duration { return time.Duration(s.end - s.start) }

// window is the outcome of one closed-loop run.
type window struct {
	samples []sample
	elapsed time.Duration // window open to the last response byte
	// exhausted reports the input stream ran out before the window closed.
	exhausted bool
}

// drive runs a closed loop over conns keep-alive connections: each sends
// its next request as soon as the previous response has been read, until
// the window closes. Inside the window the client only writes pre-built
// bytes and reads responses into a buffer; nothing is decoded there,
// because the client shares the machine's cores with the daemon. A non-nil
// tr records one span per HTTP call: the call into the server.
func drive(addr string, inputs []*input, cycle bool, d time.Duration, arenaBytes int, tr *tracer) (*window, error) {
	cs := make([]net.Conn, conns)
	for i := range cs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			for _, o := range cs[:i] {
				o.Close()
			}
			return nil, fmt.Errorf("dialing the daemon: %w", err)
		}
		cs[i] = c
	}
	// Response arenas are touched before the window opens, so the window
	// does not pay page faults for the client's buffers.
	arenas := make([][]byte, conns)
	for i := range arenas {
		arenas[i] = make([]byte, arenaBytes)
		for j := 0; j < len(arenas[i]); j += 4096 {
			arenas[i][j] = 1
		}
		arenas[i] = arenas[i][:0]
	}
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		wg        sync.WaitGroup
		per       = make([][]sample, conns)
	)
	open := time.Now()
	closeAt := open.Add(d)
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = loop(addr, cs[i], inputs, cycle, open, closeAt, &next, &exhausted, arenas[i], tr)
		}(i)
	}
	wg.Wait()
	w := &window{exhausted: exhausted.Load()}
	for _, ss := range per {
		w.samples = append(w.samples, ss...)
		for _, s := range ss {
			if e := time.Duration(s.end); e > w.elapsed {
				w.elapsed = e
			}
		}
	}
	return w, nil
}

// loop is one connection's closed loop. A transport error fails that
// request and the connection is dialed again.
func loop(addr string, c net.Conn, inputs []*input, cycle bool, open, closeAt time.Time, next *atomic.Int64, exhausted *atomic.Bool, arena []byte, tr *tracer) []sample {
	br := bufio.NewReaderSize(c, 64<<10)
	// Room for one sample per KiB of arena, so the window rarely grows it.
	out := make([]sample, 0, cap(arena)>>10)
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for time.Now().Before(closeAt) {
		i := int(next.Add(1) - 1)
		if !cycle && i >= len(inputs) {
			exhausted.Store(true)
			break
		}
		var sp *openSpan
		if tr != nil {
			sp = tr.open("r"+strconv.Itoa(i), 0, "server")
		}
		s := sample{idx: i, start: int64(time.Since(open)), span: sp.id()}
		off := len(arena)
		var err error
		arena, s.status, err = roundTrip(c, br, inputs[i%len(inputs)].wire, arena)
		s.end = int64(time.Since(open))
		sp.close()
		s.body = arena[off:] // only its length survives rebase
		s.err = err
		out = append(out, s)
		if err != nil {
			c.Close()
			if c, err = net.Dial("tcp", addr); err != nil {
				c = nil
				break
			}
			br.Reset(c)
		}
	}
	return rebase(out, arena)
}

// rebase points every sample body into the final arena: bodies recorded
// before the arena last grew alias a stale backing array.
func rebase(ss []sample, arena []byte) []sample {
	off := 0
	for i := range ss {
		n := len(ss[i].body)
		ss[i].body = arena[off : off+n : off+n]
		off += n
	}
	return ss
}

// roundTrip writes one pre-built request and appends its response body to
// arena.
func roundTrip(c net.Conn, br *bufio.Reader, wire []byte, arena []byte) ([]byte, int, error) {
	if _, err := c.Write(wire); err != nil {
		return arena, 0, err
	}
	return readResponse(br, arena)
}

// readResponse reads one HTTP/1.1 response from br and appends its body to
// arena, returning the status code. It handles exactly what the daemon
// sends, a Content-Length or a chunked body, and allocates nothing, so the
// client's own garbage collector stays out of the window.
func readResponse(br *bufio.Reader, arena []byte) ([]byte, int, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return arena, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return arena, 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err := atoi(line[9:12])
	if err != nil {
		return arena, 0, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return arena, status, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return arena, status, fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = atoi(value); err != nil {
				return arena, status, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	switch {
	case chunked:
		for {
			if line, err = br.ReadSlice('\n'); err != nil {
				return arena, status, err
			}
			size, err := hexSize(bytes.TrimRight(line, "\r\n"))
			if err != nil {
				return arena, status, fmt.Errorf("malformed chunk size %q", line)
			}
			if size == 0 {
				// No trailers follow: the last chunk ends with one CRLF.
				_, err := br.Discard(2)
				return arena, status, err
			}
			if arena, err = readN(br, arena, size); err != nil {
				return arena, status, err
			}
			if _, err := br.Discard(2); err != nil {
				return arena, status, err
			}
		}
	case length >= 0:
		arena, err = readN(br, arena, length)
		return arena, status, err
	default:
		return arena, status, fmt.Errorf("response has neither Content-Length nor chunked encoding")
	}
}

// readN appends exactly n bytes from br to dst.
func readN(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	if free := cap(dst) - len(dst); free < n {
		dst = append(dst[:cap(dst)], make([]byte, n-free)...)[:len(dst)]
	}
	_, err := io.ReadFull(br, dst[len(dst):len(dst)+n])
	return dst[:len(dst)+n], err
}

// hexSize parses a chunk size (hexadecimal, no extensions) without
// allocating.
func hexSize(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 8 {
		return 0, fmt.Errorf("bad chunk size length %d", len(b))
	}
	n := 0
	for _, ch := range b {
		switch {
		case ch >= '0' && ch <= '9':
			n = n<<4 | int(ch-'0')
		case ch >= 'a' && ch <= 'f':
			n = n<<4 | int(ch-'a'+10)
		case ch >= 'A' && ch <= 'F':
			n = n<<4 | int(ch-'A'+10)
		default:
			return 0, fmt.Errorf("bad hex digit %q", ch)
		}
	}
	return n, nil
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 12 {
		return 0, fmt.Errorf("bad number length %d", len(b))
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("bad digit %q", ch)
		}
		n = n*10 + int(ch-'0')
	}
	return n, nil
}
