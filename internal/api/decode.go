package api

import (
	"bytes"
	"strconv"
	"unicode/utf8"

	"repro/internal/dataset"
)

// The schema decoder turns a /v1/solve body into a SolveRequest in one
// pass over its bytes, without encoding/json's reflection. Both hops
// run it on every body they have not seen before, and a body is mostly
// property names: the decoder interns each distinct name once per body
// and cuts every props list from one shared backing array.
//
// It handles a subset of JSON: field names spelled exactly, each at
// most once per object; no null; strings without escapes, control
// characters or invalid UTF-8; numbers in JSON's grammar that convert
// without error; nothing but whitespace after the value. Any other
// body, every malformed one included, makes it give up, and DecodeBody
// decodes that body with encoding/json instead, which accepts it or
// words the error. So within the subset the result is what
// encoding/json would produce (FuzzDecodeSolveRequest holds the two to
// that), and outside it nothing changes.

// span locates one props list in schemaDecoder.arena; lo < 0 marks a
// list the body did not have, which decodes as nil.
type span struct{ lo, hi int32 }

type schemaDecoder struct {
	data []byte
	pos  int
	// objects counts the '{' bytes not yet consumed as objects; it sizes
	// the queries and costs arrays (rowCap).
	objects int
	// names interns the strings of this body's props lists.
	names map[string]string
	// arena holds every props list back to back; the spans record
	// where each list starts and ends, and the slices are cut once the
	// arena stops growing.
	arena                            []string
	querySpans, costSpans, planSpans []span
}

// decodeSolveRequest decodes body into req, which must be the zero
// value, and reports whether body was inside the subset the schema
// decoder handles. On false req holds a partial decode.
func decodeSolveRequest(body []byte, req *SolveRequest) bool {
	// Sizes come from two byte counts. Every object holds about two
	// keys, and every other string is a list element; interned names
	// are far fewer than elements.
	objects := bytes.Count(body, []byte{'{'})
	strs := max(bytes.Count(body, []byte{'"'})/2-2*objects, 0)
	d := schemaDecoder{
		data:    body,
		objects: objects,
		names:   make(map[string]string, min(strs/8, 1<<14)),
		arena:   make([]string, 0, strs),
	}
	if !d.request(req) {
		return false
	}
	d.space()
	if d.pos != len(d.data) {
		return false
	}
	ff := &req.Instance
	for i := range ff.Queries {
		ff.Queries[i].Props = d.cut(d.querySpans[i])
	}
	for i := range ff.Costs {
		ff.Costs[i].Props = d.cut(d.costSpans[i])
	}
	for i := range req.WarmPlan {
		req.WarmPlan[i] = d.cut(d.planSpans[i])
	}
	return true
}

// Field bits, for refusing a key that repeats within one object.
const (
	fieldInstance = 1 << iota
	fieldAlgo
	fieldBudget
	fieldTarget
	fieldSeed
	fieldDeadline
	fieldNoCache
	fieldIncludePlan
	fieldWarmPlan
	fieldQueries
	fieldCosts
	fieldDefault
	fieldProps
	fieldUtility
	fieldCost
	fieldInf
	fieldPerProp
)

func (d *schemaDecoder) request(req *SolveRequest) bool {
	return d.object(func(key []byte) (uint, bool) {
		var ok bool
		switch string(key) {
		case "instance":
			return fieldInstance, d.instance(&req.Instance)
		case "algo":
			var s []byte
			s, ok = d.str()
			req.Algo = string(s)
			return fieldAlgo, ok
		case "budget":
			var f float64
			f, ok = d.float()
			req.Budget = &f
			return fieldBudget, ok
		case "target":
			req.Target, ok = d.float()
			return fieldTarget, ok
		case "seed":
			req.Seed, ok = d.int()
			return fieldSeed, ok
		case "deadline_ms":
			req.DeadlineMS, ok = d.int()
			return fieldDeadline, ok
		case "no_cache":
			req.NoCache, ok = d.bool()
			return fieldNoCache, ok
		case "include_plan":
			req.IncludePlan, ok = d.bool()
			return fieldIncludePlan, ok
		case "warm_plan":
			ok = d.array(func() bool {
				sp, ok := d.strings()
				d.planSpans = append(d.planSpans, sp)
				return ok
			})
			req.WarmPlan = make([][]string, len(d.planSpans))
			return fieldWarmPlan, ok
		}
		return 0, false
	})
}

func (d *schemaDecoder) instance(ff *dataset.FileFormat) bool {
	return d.object(func(key []byte) (uint, bool) {
		var ok bool
		switch string(key) {
		case "budget":
			ff.Budget, ok = d.float()
			return fieldBudget, ok
		case "queries":
			ff.Queries = make([]dataset.FileQuery, 0, d.rowCap())
			d.querySpans = make([]span, 0, d.rowCap())
			ok = d.array(func() bool {
				var q dataset.FileQuery
				sp := span{-1, -1}
				ok := d.object(func(key []byte) (uint, bool) {
					var ok bool
					switch string(key) {
					case "props":
						sp, ok = d.strings()
						return fieldProps, ok
					case "utility":
						q.Utility, ok = d.float()
						return fieldUtility, ok
					}
					return 0, false
				})
				ff.Queries = append(ff.Queries, q)
				d.querySpans = append(d.querySpans, sp)
				return ok
			})
			return fieldQueries, ok
		case "costs":
			ff.Costs = make([]dataset.FileCost, 0, d.rowCap())
			d.costSpans = make([]span, 0, d.rowCap())
			ok = d.array(func() bool {
				var c dataset.FileCost
				sp := span{-1, -1}
				ok := d.object(func(key []byte) (uint, bool) {
					var ok bool
					switch string(key) {
					case "props":
						sp, ok = d.strings()
						return fieldProps, ok
					case "cost":
						c.Cost, ok = d.float()
						return fieldCost, ok
					case "inf":
						c.Inf, ok = d.bool()
						return fieldInf, ok
					}
					return 0, false
				})
				ff.Costs = append(ff.Costs, c)
				d.costSpans = append(d.costSpans, sp)
				return ok
			})
			return fieldCosts, ok
		case "default_cost":
			def := new(dataset.FileDefault)
			ff.Default = def
			return fieldDefault, d.object(func(key []byte) (uint, bool) {
				var ok bool
				switch string(key) {
				case "cost":
					def.Cost, ok = d.float()
					return fieldCost, ok
				case "per_prop":
					def.PerProp, ok = d.float()
					return fieldPerProp, ok
				}
				return 0, false
			})
		}
		return 0, false
	})
}

// rowCap sizes a queries or costs array: the objects left in the body
// bound its rows. A row takes 30 or more bytes in bodies json.Marshal
// writes, and the cap keeps a body of smaller rows, or of braces inside
// strings, from sizing an array past a small multiple of the body's own
// length; such a body grows the array instead.
func (d *schemaDecoder) rowCap() int {
	return min(d.objects, len(d.data)/32)
}

// cut returns the props list sp locates: nil when absent, non-nil and
// empty for [], as encoding/json decodes them.
func (d *schemaDecoder) cut(sp span) []string {
	switch {
	case sp.lo < 0:
		return nil
	case sp.lo == sp.hi:
		return []string{}
	}
	return d.arena[sp.lo:sp.hi:sp.hi]
}

// object decodes an object whose values field decodes: field gets each
// key with pos at its value and returns the key's field bit and whether
// the value decoded. An unknown key (bit 0) or a repeated one fails.
func (d *schemaDecoder) object(field func(key []byte) (uint, bool)) bool {
	d.space()
	if !d.consume('{') {
		return false
	}
	d.objects--
	d.space()
	if d.consume('}') {
		return true
	}
	var seen uint
	for {
		d.space()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.space()
		if !d.consume(':') {
			return false
		}
		d.space()
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		d.space()
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array decodes an array whose elements elem decodes.
func (d *schemaDecoder) array(elem func() bool) bool {
	d.space()
	if !d.consume('[') {
		return false
	}
	d.space()
	if d.consume(']') {
		return true
	}
	for {
		d.space()
		if !elem() {
			return false
		}
		d.space()
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// strings decodes an array of strings into the arena, interned.
func (d *schemaDecoder) strings() (span, bool) {
	lo := int32(len(d.arena))
	ok := d.array(func() bool {
		b, ok := d.str()
		if !ok {
			return false
		}
		s, seen := d.names[string(b)]
		if !seen {
			s = string(b)
			d.names[s] = s
		}
		d.arena = append(d.arena, s)
		return true
	})
	return span{lo, int32(len(d.arena))}, ok
}

// str decodes a string that encoding/json would copy byte for byte:
// valid UTF-8 with no escape and no control character. The result
// aliases the body.
func (d *schemaDecoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start, ascii := d.pos, true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			d.pos = i + 1
			return s, true
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number scans a literal in JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it is a plain integer. Only such literals reach strconv, which also
// accepts hex, underscores and Inf.
func (d *schemaDecoder) number() (lit []byte, integer, ok bool) {
	data, i := d.data, d.pos
	digits := func() bool {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		return nil, false, false
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	lit, d.pos = data[d.pos:i], i
	return lit, integer, true
}

// float decodes a number as encoding/json decodes one into a float64.
// An integer of at most 15 digits is below 2^53, so converting it
// exactly gives what strconv.ParseFloat's correct rounding gives.
func (d *schemaDecoder) float() (float64, bool) {
	lit, integer, ok := d.number()
	if !ok {
		return 0, false
	}
	digits := lit
	if lit[0] == '-' {
		digits = lit[1:]
	}
	if integer && len(digits) <= 15 {
		var n int64
		for _, c := range digits {
			n = n*10 + int64(c-'0')
		}
		f := float64(n)
		if len(digits) < len(lit) {
			f = -f // -0 too
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int decodes a number as encoding/json decodes one into an int64: an
// integer literal in range, nothing else.
func (d *schemaDecoder) int() (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, err == nil
}

func (d *schemaDecoder) bool() (bool, bool) {
	switch rest := d.data[d.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.pos += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.pos += 5
		return false, true
	}
	return false, false
}

// space skips JSON whitespace.
func (d *schemaDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *schemaDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}
