package engine

import "hypertree/internal/csp"

// hashFunc hashes the values of row at the given columns. Both sides of a
// join probe hash parallel column lists in the same order, so equal value
// sequences always collide into the same bucket regardless of which table
// they come from.
type hashFunc func(row []csp.Value, cols []int32) uint64

// tupleHash is FNV-1a over the selected values followed by a murmur-style
// avalanche (low-entropy domains like {0,1} would otherwise pile into a few
// buckets). The hash is only a bucket discriminator: every probe re-verifies
// candidates value-by-value (node.matchRow), so a collision costs one extra
// comparison, never a wrong answer.
func tupleHash(row []csp.Value, cols []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h ^= uint64(row[c])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// tupleHashHook is captured by compilation into each Plan (indexes and probes
// must use the same function for the lifetime of a plan). Engine tests swap
// in adversarial hashes — a constant — before compiling to prove that
// correctness never depends on hash quality.
var tupleHashHook hashFunc = tupleHash
