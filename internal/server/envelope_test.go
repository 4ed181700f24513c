package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzQueryEnvelope checks the one-pass /query reader against
// json.Unmarshal into a queryEnvelope, its definition. On every body both
// fail together with the same error text, read the same csp bytes (nil
// exactly when the other is nil) and DeepEqual queries. Queries are not
// compared through json.Marshal: it replaces invalid UTF-8 with U+FFFD as
// the decoder does, so a reader that kept a raw byte would still pass.
func FuzzQueryEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := readQueryEnvelope(body)
		var want queryEnvelope
		wantErr := json.Unmarshal(body, &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v; json.Unmarshal: %v", gotErr, wantErr)
		}
		if !bytes.Equal(got.CSP, want.CSP) || (got.CSP == nil) != (want.CSP == nil) {
			t.Fatalf("csp %q (nil %v); json.Unmarshal: %q (nil %v)", got.CSP, got.CSP == nil, want.CSP, want.CSP == nil)
		}
		if !reflect.DeepEqual(got.Queries, want.Queries) {
			t.Fatalf("queries %#v; json.Unmarshal: %#v", got.Queries, want.Queries)
		}
	})
}

// TestReadQueryEnvelopeOnePass pins the reader's reason to exist: a body
// of the serving benchmark's shape is read by the one-pass path, not
// handed to json.Unmarshal, and its csp is a sub-slice of the body.
func TestReadQueryEnvelopeOnePass(t *testing.T) {
	body := hotBody(t, rand.New(rand.NewSource(1)), hotCSPs(t)[0])
	env, ok := fastEnvelope(body)
	if !ok {
		t.Fatalf("the one-pass reader declined %s", body)
	}
	if len(env.CSP) == 0 || &env.CSP[0] != &body[len(`{"csp":`)] {
		t.Fatal("the csp is not a sub-slice of the body")
	}
	if len(env.Queries) != 8 {
		t.Fatalf("%d queries, want 8", len(env.Queries))
	}
}

// FuzzCSPSpec checks the one-pass csp reader against json.Unmarshal into a
// cspSpec, its definition: on every input both fail together with the same
// error text, or decode DeepEqual specs, which tells nil slices from empty
// ones (a null or absent member from []). The seeds are the serving
// benchmark's csp shape and the edge cases in testdata/fuzz/FuzzCSPSpec.
func FuzzCSPSpec(f *testing.F) {
	for _, js := range circuitCSPs(f, 1, 2) {
		f.Add(js)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, gotErr := readCSPSpec(raw)
		var want cspSpec
		wantErr := json.Unmarshal(raw, &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v; json.Unmarshal: %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %#v; json.Unmarshal: %#v", got, want)
		}
	})
}

// TestReadCSPSpecOnePass pins the reader's reason to exist: a csp of the
// serving benchmark's shape is read by the one-pass path, not handed to
// json.Unmarshal, into the spec json.Unmarshal decodes, with every tuple
// capacity-clipped and three allocations in all: the flat value array, the
// flat row array and the constraints.
func TestReadCSPSpecOnePass(t *testing.T) {
	for _, js := range append(circuitCSPs(t, 1, 8), hotCSPs(t)...) {
		spec, ok := fastCSPSpec(js)
		if !ok {
			t.Fatalf("the one-pass reader declined %s", js)
		}
		var want cspSpec
		if err := json.Unmarshal(js, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, want) {
			t.Fatalf("spec %#v; json.Unmarshal: %#v", spec, want)
		}
		for _, con := range spec.Constraints {
			for _, tup := range con.Tuples {
				if cap(tup) != len(tup) {
					t.Fatalf("tuple %v has capacity %d", tup, cap(tup))
				}
			}
		}
		if n := testing.AllocsPerRun(20, func() { fastCSPSpec(js) }); n != 3 {
			t.Fatalf("the one-pass reader allocated %v times, want 3", n)
		}
	}
}

// TestReadCSPSpecLargeAndHostile covers the reader's two size regimes: a
// csp with more values, rows and constraints than its first capacities
// decodes as json.Unmarshal decodes it, through the appends that move its
// flat arrays, and a 1 MiB csp whose brackets, commas and braces all sit
// inside a string makes it allocate a bounded amount before it declines.
func TestReadCSPSpecLargeAndHostile(t *testing.T) {
	var big bytes.Buffer
	big.WriteString(`{"num_vars":3000,"domain":[0,1],"constraints":[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `{"scope":[%d,%d,%d],"tuples":[[0,0,0],[1,0,0],[0,1,0],[0,0,1]]}`, i, i+1, i+2)
	}
	big.WriteString(`]}`)
	spec, ok := fastCSPSpec(big.Bytes())
	if !ok {
		t.Fatal("the one-pass reader declined the large csp")
	}
	var want cspSpec
	if err := json.Unmarshal(big.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatal("the large csp decodes differently from json.Unmarshal")
	}

	hostile := []byte(`{"num_vars":1,"x":"` + strings.Repeat("[,{", 1<<20/3) + `"}`)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, ok := fastCSPSpec(hostile); ok {
		t.Fatal("the one-pass reader accepted an unknown key")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 512<<10 {
		t.Fatalf("declining a %d-byte csp allocated %d bytes", len(hostile), n)
	}
}
