package server

import (
	"bytes"
	"encoding/json"
)

// readQueryEnvelope decodes a /query body exactly as json.Unmarshal into a
// queryEnvelope does: the same envelope on success, the same error text on
// failure. A body of the common shape is read in one pass: the csp value is
// validated and kept as a sub-slice of body, not copied, and the queries
// are decoded directly. Every other body goes to json.Unmarshal, which then
// decides: escaped or non-ASCII strings (it replaces invalid UTF-8 with
// U+FFFD), keys that match a field only case-insensitively, unknown keys,
// repeated members, nulls and numbers that are not integers where an int
// is wanted, nesting deeper than maxFastDepth, and every syntax error.
//
// env.CSP aliases body, so the caller must not keep it past the request.
func readQueryEnvelope(body []byte) (queryEnvelope, error) {
	if env, ok := fastEnvelope(body); ok {
		return env, nil
	}
	var env queryEnvelope
	err := json.Unmarshal(body, &env)
	return env, err
}

// maxFastDepth bounds the bracket nesting the one-pass reader follows,
// counting the envelope's own braces; deeper bodies go to json.Unmarshal.
// It keeps the reader's recursion shallow: a CSP nests five deep.
const maxFastDepth = 64

// The one-pass reader is a set of functions over the body b. Each reads
// one JSON construct starting at b[i] and returns the index just past it,
// or -1 for anything outside the shape it handles, leaving the verdict to
// json.Unmarshal.

// fastEnvelope reads the whole body: one object with at most one csp and
// one queries member, and nothing after it but whitespace.
func fastEnvelope(b []byte) (env queryEnvelope, ok bool) {
	i := jsonSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return env, false
	}
	var sawCSP, sawQueries bool
	i = jsonMembers(b, i+1, func(key []byte, i int) int {
		switch string(key) {
		case "csp":
			if sawCSP {
				return -1
			}
			sawCSP = true
			end := jsonValue(b, i, 1)
			if end >= 0 {
				env.CSP = b[i:end:end]
			}
			return end
		case "queries":
			if sawQueries {
				return -1
			}
			sawQueries = true
			env.Queries, i = readQueries(b, i)
			return i
		}
		return -1
	})
	return env, i >= 0 && jsonSpace(b, i) == len(b)
}

// readQueries reads the queries array; every element must be a query
// object.
func readQueries(b []byte, i int) ([]querySpec, int) {
	if i == len(b) || b[i] != '[' {
		return nil, -1
	}
	qs := make([]querySpec, 0, 8)
	i = jsonElements(b, i+1, func(i int) int {
		q, end := readQuery(b, i)
		qs = append(qs, q)
		return end
	})
	return qs, i
}

// readQuery reads one query object: an ASCII op string, an assign object
// of ASCII names to integers and an integer limit, each at most once.
func readQuery(b []byte, i int) (querySpec, int) {
	var q querySpec
	if i == len(b) || b[i] != '{' {
		return q, -1
	}
	var sawOp, sawAssign, sawLimit bool
	i = jsonMembers(b, i+1, func(key []byte, i int) int {
		switch string(key) {
		case "op":
			op, plain, end := jsonString(b, i)
			if sawOp || !plain {
				return -1
			}
			sawOp = true
			q.Op = opName(op)
			return end
		case "assign":
			if sawAssign {
				return -1
			}
			sawAssign = true
			q.Assign, i = readAssign(b, i)
			return i
		case "limit":
			if sawLimit {
				return -1
			}
			sawLimit = true
			q.Limit, i = readInt(b, i)
			return i
		}
		return -1
	})
	return q, i
}

// opName returns op as a string, sharing the known names' storage.
func opName(op []byte) string {
	for _, name := range queryOps {
		if string(op) == name {
			return name
		}
	}
	return string(op)
}

// readAssign reads an assign object. A repeated name keeps its last value,
// as json.Unmarshal's map assignment does.
func readAssign(b []byte, i int) (map[string]int, int) {
	if i == len(b) || b[i] != '{' {
		return nil, -1
	}
	m := make(map[string]int, 2)
	i = jsonMembers(b, i+1, func(name []byte, i int) int {
		v, end := readInt(b, i)
		if end >= 0 {
			m[string(name)] = v
		}
		return end
	})
	return m, i
}

// readCSPSpec decodes a csp value exactly as json.Unmarshal into a cspSpec
// does: the same spec on success, the same error text on failure. A csp of
// the common shape is read in one pass: an object of the plain ASCII keys
// num_vars (an integer of at most 18 digits), domain and domains (arrays
// of such integers, or of arrays of them), constraints (objects of scope
// and tuples, each at most once) and var_names (plain strings), each key
// at most once. Every integer it reads lands in one flat array, and every
// domain, scope and tuple is a capacity-clipped view of it; every tuple
// row header lands in a second. Every other csp goes to json.Unmarshal,
// which then decides: nulls, escaped or non-ASCII strings, keys that match
// a field only case-insensitively, unknown or repeated keys, longer or
// non-integer numbers, and every syntax error.
func readCSPSpec(b []byte) (cspSpec, error) {
	if spec, ok := fastCSPSpec(b); ok {
		return spec, nil
	}
	var spec cspSpec
	err := json.Unmarshal(b, &spec)
	return spec, err
}

// cspReader holds the one-pass csp reader's flat arrays. Views into them
// stay valid if an append moves them, so the sizes from fastCSPSpec's
// bracket and comma counts are a saving, not a requirement.
type cspReader struct {
	b    []byte
	vals []int
	rows [][]int
}

// fastCSPSpec reads the whole csp; ok is false for anything outside the
// shape readCSPSpec describes.
func fastCSPSpec(b []byte) (spec cspSpec, ok bool) {
	i := jsonSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return spec, false
	}
	// No JSON text holds more integers than commas plus arrays, nor more
	// arrays (so rows) than '[' bytes, nor more constraints than '{'. The
	// counts size the arrays up to fixed caps (~200 KB in all), so a body
	// of brackets inside a string cannot make the reader allocate in
	// proportion before it declines; a larger csp grows them by append.
	arrays := bytes.Count(b, []byte{'['})
	r := cspReader{
		b:    b,
		vals: make([]int, 0, min(bytes.Count(b, []byte{','})+arrays, 1<<13)),
		rows: make([][]int, 0, min(arrays, 1<<12)),
	}
	var seen [5]bool
	first := func(k int) bool {
		was := seen[k]
		seen[k] = true
		return !was
	}
	i = jsonMembers(b, i+1, func(key []byte, i int) int {
		switch k := string(key); {
		case k == "num_vars" && first(0):
			spec.NumVars, i = readInt(b, i)
		case k == "domain" && first(1):
			spec.Domain, i = r.ints(i)
		case k == "domains" && first(2):
			spec.Domains, i = r.lists(i)
		case k == "constraints" && first(3):
			spec.Constraints, i = r.constraints(i, min(bytes.Count(b, []byte{'{'}), 1<<10))
		case k == "var_names" && first(4):
			spec.VarNames, i = readNames(b, i)
		default:
			return -1
		}
		return i
	})
	return spec, i >= 0 && jsonSpace(b, i) == len(b)
}

// ints reads an array of integers into vals and returns its view.
func (r *cspReader) ints(i int) ([]int, int) {
	if i == len(r.b) || r.b[i] != '[' {
		return nil, -1
	}
	start := len(r.vals)
	i = jsonElements(r.b, i+1, func(i int) int {
		v, end := readInt(r.b, i)
		r.vals = append(r.vals, v)
		return end
	})
	end := len(r.vals)
	return r.vals[start:end:end], i
}

// lists reads an array of integer arrays into rows and returns its view.
func (r *cspReader) lists(i int) ([][]int, int) {
	if i == len(r.b) || r.b[i] != '[' {
		return nil, -1
	}
	start := len(r.rows)
	i = jsonElements(r.b, i+1, func(i int) int {
		row, end := r.ints(i)
		r.rows = append(r.rows, row)
		return end
	})
	end := len(r.rows)
	return r.rows[start:end:end], i
}

// constraints reads the constraints array; every element must be an object
// of scope and tuples, each at most once. size is the result's first
// capacity.
func (r *cspReader) constraints(i, size int) ([]constraintSpec, int) {
	if i == len(r.b) || r.b[i] != '[' {
		return nil, -1
	}
	cons := make([]constraintSpec, 0, size)
	i = jsonElements(r.b, i+1, func(i int) int {
		if i == len(r.b) || r.b[i] != '{' {
			return -1
		}
		var con constraintSpec
		var sawScope, sawTuples bool
		end := jsonMembers(r.b, i+1, func(key []byte, i int) int {
			switch string(key) {
			case "scope":
				if sawScope {
					return -1
				}
				sawScope = true
				con.Scope, i = r.ints(i)
				return i
			case "tuples":
				if sawTuples {
					return -1
				}
				sawTuples = true
				con.Tuples, i = r.lists(i)
				return i
			}
			return -1
		})
		cons = append(cons, con)
		return end
	})
	return cons, i
}

// readNames reads an array of plain strings.
func readNames(b []byte, i int) ([]string, int) {
	if i == len(b) || b[i] != '[' {
		return nil, -1
	}
	names := make([]string, 0, 8)
	i = jsonElements(b, i+1, func(i int) int {
		name, plain, end := jsonString(b, i)
		if !plain {
			return -1
		}
		names = append(names, string(name))
		return end
	})
	return names, i
}

// jsonMembers reads the members of an object from just past its '{'
// through its '}'. Every key must be plain; member reads the value at its
// index and returns the index past it, or -1.
func jsonMembers(b []byte, i int, member func(key []byte, i int) int) int {
	if i = jsonSpace(b, i); i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		key, plain, end := jsonString(b, i)
		if !plain {
			return -1
		}
		if i = jsonSpace(b, end); i == len(b) || b[i] != ':' {
			return -1
		}
		if i = member(key, jsonSpace(b, i+1)); i < 0 {
			return -1
		}
		if i = jsonSpace(b, i); i == len(b) {
			return -1
		}
		switch b[i] {
		case '}':
			return i + 1
		case ',':
			i = jsonSpace(b, i+1)
		default:
			return -1
		}
	}
}

// jsonElements reads the elements of an array from just past its '['
// through its ']'; element reads the element at its index and returns the
// index past it, or -1.
func jsonElements(b []byte, i int, element func(i int) int) int {
	if i = jsonSpace(b, i); i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		if i = element(i); i < 0 {
			return -1
		}
		if i = jsonSpace(b, i); i == len(b) {
			return -1
		}
		switch b[i] {
		case ']':
			return i + 1
		case ',':
			i = jsonSpace(b, i+1)
		default:
			return -1
		}
	}
}

// jsonValue validates any JSON value inside depth open brackets.
func jsonValue(b []byte, i, depth int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '{':
		if depth >= maxFastDepth {
			return -1
		}
		return jsonMembers(b, i+1, func(_ []byte, i int) int { return jsonValue(b, i, depth+1) })
	case '[':
		if depth >= maxFastDepth {
			return -1
		}
		return jsonElements(b, i+1, func(i int) int { return jsonValue(b, i, depth+1) })
	case '"':
		_, _, end := jsonString(b, i)
		return end
	case 't':
		return jsonLiteral(b, i, "true")
	case 'f':
		return jsonLiteral(b, i, "false")
	case 'n':
		return jsonLiteral(b, i, "null")
	}
	return jsonNumber(b, i)
}

// jsonString reads a string. raw is the bytes between its quotes, and
// plain reports that they are printable ASCII without escapes, so raw is
// the decoded string. end is -1 unless the string is well formed.
func jsonString(b []byte, i int) (raw []byte, plain bool, end int) {
	if i == len(b) || b[i] != '"' {
		return nil, false, -1
	}
	i++
	start := i
	plain = true
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			return b[start:i], plain, i + 1
		case c < 0x20:
			return nil, false, -1
		case c == '\\':
			plain = false
			i++
			if i == len(b) {
				return nil, false, -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for hexEnd := i + 4; i < hexEnd; i++ {
					if i == len(b) || !isHex(b[i]) {
						return nil, false, -1
					}
				}
			default:
				return nil, false, -1
			}
		case c >= 0x80:
			plain = false
			i++
		default:
			i++
		}
	}
	return nil, false, -1
}

// jsonNumber reads a number by the JSON grammar.
func jsonNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = jsonDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return -1
		}
		i = jsonDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1
		}
		i = jsonDigits(b, i)
	}
	return i
}

// readInt reads an integer of at most 18 digits, which fits an int64
// unchecked. Longer ones, fractions and exponents go to json.Unmarshal,
// which decides whether they fit the int.
func readInt(b []byte, i int) (int, int) {
	end := jsonNumber(b, i)
	if end < 0 {
		return 0, -1
	}
	tok := b[i:end]
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 18 {
		return 0, -1
	}
	var n int64
	for _, c := range tok {
		if !isDigit(c) {
			return 0, -1
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, -1
	}
	return int(n), end
}

// jsonLiteral reads the literal lit.
func jsonLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// jsonSpace skips JSON whitespace.
func jsonSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// jsonDigits returns the index of the first non-digit at or after i.
func jsonDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
