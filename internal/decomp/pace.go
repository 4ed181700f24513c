package decomp

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTd writes a tree decomposition in the PACE .td output format:
//
//	s td <#bags> <width+1> <#vertices>
//	b <bag-id> <v1> <v2> ...      (1-based vertices)
//	<bag-id> <bag-id>             (tree edges, 1-based)
func (td *TreeDecomposition) WriteTd(w io.Writer, numVertices int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "s td %d %d %d\n", len(td.Bags), td.Width()+1, numVertices)
	for i, bag := range td.Bags {
		fmt.Fprintf(bw, "b %d", i+1)
		for _, v := range bag {
			fmt.Fprintf(bw, " %d", v+1)
		}
		fmt.Fprintln(bw)
	}
	for i, p := range td.Parent {
		if p >= 0 {
			fmt.Fprintf(bw, "%d %d\n", p+1, i+1)
		}
	}
	return bw.Flush()
}
