package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
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
