package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadResponse reads net/http's own responses off a keep-alive
// connection: a short body (Content-Length), a long one (chunked) and an
// error status, in that order on one connection.
func TestReadResponse(t *testing.T) {
	long := strings.Repeat("0123456789", 1000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/short":
			w.Write([]byte(`{"ok":true}`))
		case "/long":
			w.Write([]byte(long))
		default:
			http.Error(w, "no", http.StatusTeapot)
		}
	}))
	defer srv.Close()
	c, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	var arena []byte
	for _, tc := range []struct {
		path   string
		status int
		body   string
	}{
		{"/short", 200, `{"ok":true}`},
		{"/long", 200, long},
		{"/other", http.StatusTeapot, "no\n"},
		{"/short", 200, `{"ok":true}`},
	} {
		off := len(arena)
		var status int
		arena, status, err = roundTrip(c, br, httpPost(tc.path, "text/plain", []byte("x")), arena)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if status != tc.status || !bytes.Equal(arena[off:], []byte(tc.body)) {
			t.Fatalf("%s: status %d, body %.40q; want %d, %.40q", tc.path, status, arena[off:], tc.status, tc.body)
		}
	}
}
