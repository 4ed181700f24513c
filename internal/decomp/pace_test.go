package decomp

import (
	"bytes"
	"testing"
)

// TestWriteTdGolden pins WriteTd's PACE .td text for the thesis's Example 5
// decomposition: the solution line, one 1-based bag line per node, and one
// parent-child line per tree edge.
func TestWriteTdGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := example5TD().WriteTd(&buf, example5().N()); err != nil {
		t.Fatal(err)
	}
	const want = "s td 4 3 6\n" +
		"b 1 1 3 5\n" +
		"b 2 1 2 3\n" +
		"b 3 3 4 5\n" +
		"b 4 1 5 6\n" +
		"1 2\n" +
		"1 3\n" +
		"1 4\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteTd =\n%s\nwant\n%s", got, want)
	}
}
