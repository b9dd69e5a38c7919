package taskgraph

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Canonicalizer fuses request decoding with canonicalization: one pass
// over a graph's wire JSON yields the canonical form (tasks ID-sorted,
// edges (from,to)-sorted with duplicates merged), the structural
// fingerprint, and — only if the caller still needs one — the
// materialized *Graph. The served warm path uses it to compute a cache
// key without Graph.CanonicalJSON's decode-then-re-marshal round trip:
// AppendCanonicalJSON emits bytes that are guaranteed byte-identical to
// CanonicalJSON of the decoded graph, and Fingerprint matches
// Graph.Fingerprint, so keys derived from either path are interchangeable.
//
// The graph is read by the hand-written Scanner when the document lies in
// its subset and by encoding/json otherwise (ReadReference); both leave
// the same state behind. On the scanner's path task and graph names stay
// spans into the parsed document, so the caller must leave those bytes
// unchanged until the next Scan, Read, Parse or Reset; Graph copies the
// names out. Nothing is ever written into the document.
//
// Between a read and Canonicalize the graph can be edited in place
// (SetLoad, AppendTask, AppendEdge, SetEdge, DeleteEdge), so a caller
// that changes a stored graph reads it once and checks it once, exactly
// as if the edited document had arrived on the wire.
//
// A Canonicalizer is reusable: every parse resets all state, and steady
// state reuse (e.g. from a sync.Pool) of the scanner's path allocates
// nothing. It is not safe for concurrent use.
type Canonicalizer struct {
	text  []byte      // what every name span indexes: the parsed document, or own
	own   []byte      // the document's text plus names decoded or appended since
	owned bool        // text is own, so names may be appended to it
	name  span        // the graph's name
	tasks []canonTask // input order until Canonicalize sorts them by ID
	edges []jsonEdge  // input order
	canon []jsonEdge  // canonical edge list: (from,to)-sorted, duplicates merged
	fp    uint64
	sk    Sketch
	skOK  bool // sk is computed on first read
}

// span is a name's [off, end) in Canonicalizer.text.
type span struct{ off, end int }

type canonTask struct {
	id   int
	load float64
	name span
}

// graphFields, taskFields and edgeFields are the wire keys of jsonGraph,
// jsonTask and jsonEdge.
var (
	graphFields = []string{"name", "tasks", "edges"}
	taskFields  = []string{"id", "name", "load"}
	edgeFields  = []string{"from", "to", "bits"}
)

// Parse decodes and validates one graph document, leaving the canonical
// form ready for AppendCanonicalJSON/Fingerprint/Graph. It applies the
// exact validation sequence of Graph.UnmarshalJSON — decode, dense task
// IDs, then per-edge endpoint/self-loop/volume checks in input order —
// and returns errors with identical messages, so callers that previously
// decoded into a *Graph surface unchanged errors to their clients.
// Acyclicity is the one check deferred to Graph: the canonical bytes and
// fingerprint are well-defined for cyclic inputs, and the served cache
// path only materializes a Graph on a miss.
//
// Parse is Read followed by Canonicalize. A document outside the
// scanner's subset is decoded by encoding/json, so every rejection is
// encoding/json's.
func (c *Canonicalizer) Parse(data []byte) error {
	if err := c.Read(data); err != nil {
		return decodeError(err)
	}
	return c.Canonicalize()
}

// Read reads one whole graph document, syntax only, as Scan does: by the
// Scanner when the document lies in its subset and by ReadReference
// otherwise. An error is encoding/json's, unwrapped.
func (c *Canonicalizer) Read(data []byte) error {
	sc := NewScanner(data)
	c.Scan(&sc)
	if sc.End() {
		return nil
	}
	return c.ReadReference(data)
}

// Scan reads one graph object at the scanner's position, syntax only:
// it fills the task and edge lists and checks nothing about the graph
// itself, so a caller decoding an envelope around the graph can finish
// the envelope (and decline it as a whole) before any graph error is
// reported. Canonicalize then checks and canonicalizes what Scan read.
// Whether the object was in the subset is the scanner's OK.
func (c *Canonicalizer) Scan(sc *Scanner) {
	c.reset(sc.data)
	var seen uint32
	sc.Begin('{')
	for i := 0; sc.More('}', i); i++ {
		switch sc.Field(&seen, graphFields) {
		case "name":
			c.name.off, c.name.end = sc.str()
		case "tasks":
			if sc.Null() {
				continue
			}
			sc.Begin('[')
			for j := 0; sc.More(']', j); j++ {
				var t canonTask
				var tseen uint32
				sc.Begin('{')
				for k := 0; sc.More('}', k); k++ {
					switch sc.Field(&tseen, taskFields) {
					case "id":
						t.id = sc.Int()
					case "name":
						t.name.off, t.name.end = sc.str()
					case "load":
						t.load = sc.Float()
					}
				}
				c.tasks = append(c.tasks, t)
			}
		case "edges":
			if sc.Null() {
				continue
			}
			sc.Begin('[')
			for j := 0; sc.More(']', j); j++ {
				var e jsonEdge
				var eseen uint32
				sc.Begin('{')
				for k := 0; sc.More('}', k); k++ {
					switch sc.Field(&eseen, edgeFields) {
					case "from":
						e.From = sc.Int()
					case "to":
						e.To = sc.Int()
					case "bits":
						e.Bits = sc.Float()
					}
				}
				c.edges = append(c.edges, e)
			}
		}
	}
}

// ParseReference is Parse without the scanner: encoding/json decodes the
// document, exactly as Graph.UnmarshalJSON does. It is the oracle the
// scanner is tested against.
func (c *Canonicalizer) ParseReference(data []byte) error {
	if err := c.ReadReference(data); err != nil {
		return decodeError(err)
	}
	return c.Canonicalize()
}

// ReadReference is Read without the scanner: encoding/json decodes the
// document into the state Scan would have left, copying the names into
// c's own text. Read falls back to it for any document outside the
// scanner's subset. An error is encoding/json's, unwrapped.
func (c *Canonicalizer) ReadReference(data []byte) error {
	c.reset(nil)
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	c.name = c.keep(jg.Name)
	for _, t := range jg.Tasks {
		c.tasks = append(c.tasks, canonTask{id: t.ID, load: t.Load, name: c.keep(t.Name)})
	}
	c.edges = append(c.edges, jg.Edges...)
	return nil
}

// decodeError words a read error as json.Unmarshal into a *Graph does:
// its validity pre-scan reports syntax errors bare, before
// Graph.UnmarshalJSON (whose "taskgraph: decode:" wrapper applies to
// everything else) ever runs.
func decodeError(err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return err
	}
	return fmt.Errorf("taskgraph: decode: %w", err)
}

// keep copies a name into c.own and returns its span. The first copy
// moves the text read so far into c.own as well, so the spans already
// taken stay valid and the document read is never written.
func (c *Canonicalizer) keep(name string) span {
	if name == "" {
		return span{}
	}
	if !c.owned {
		c.own = append(c.own[:0], c.text...)
		c.owned = true
	}
	off := len(c.own)
	c.own = append(c.own, name...)
	c.text = c.own
	return span{off, len(c.own)}
}

// SetLoad sets the load of the task at position i (0 <= i < NumTasks) in
// document order, which for a canonical document is task i.
func (c *Canonicalizer) SetLoad(i int, load float64) { c.tasks[i].load = load }

// AppendTask appends a task to the document's task list. Its name is
// copied into c's own text.
func (c *Canonicalizer) AppendTask(id int, name string, load float64) {
	c.tasks = append(c.tasks, canonTask{id: id, load: load, name: c.keep(name)})
}

// AppendEdge appends an edge to the document's edge list; Canonicalize
// merges it with any earlier edge between the same tasks.
func (c *Canonicalizer) AppendEdge(from, to int, bits float64) {
	c.edges = append(c.edges, jsonEdge{From: from, To: to, Bits: bits})
}

// SetEdge sets the volume of the first edge from->to in document order
// and reports whether there was one.
func (c *Canonicalizer) SetEdge(from, to int, bits float64) bool {
	i := c.edgeIndex(from, to)
	if i >= 0 {
		c.edges[i].Bits = bits
	}
	return i >= 0
}

// DeleteEdge removes the first edge from->to in document order, keeping
// the order of the rest, and reports whether there was one.
func (c *Canonicalizer) DeleteEdge(from, to int) bool {
	i := c.edgeIndex(from, to)
	if i >= 0 {
		c.edges = slices.Delete(c.edges, i, i+1)
	}
	return i >= 0
}

// edgeIndex returns the position of the first edge from->to, or -1.
func (c *Canonicalizer) edgeIndex(from, to int) int {
	return slices.IndexFunc(c.edges, func(e jsonEdge) bool { return e.From == from && e.To == to })
}

// Reset empties c and drops its reference to the last parsed document,
// keeping its arrays for reuse. Call it before pooling a Canonicalizer
// whose document buffer is about to be reused or released.
func (c *Canonicalizer) Reset() { c.reset(nil) }

// reset empties c for a document whose names live in text.
func (c *Canonicalizer) reset(text []byte) {
	c.text = text
	c.owned = false
	c.name = span{}
	c.tasks = c.tasks[:0]
	c.edges = c.edges[:0]
	c.canon = c.canon[:0]
	c.fp = 0
	c.skOK = false
}

// Canonicalize checks the graph Scan or Read read, edits included —
// dense task IDs, then each edge's endpoints, self-loop and volume, in
// Graph.UnmarshalJSON's order and with its messages — and builds the
// canonical form and fingerprint. Parse calls it; a caller that used Scan
// directly calls it once the surrounding document is known to be
// well-formed.
func (c *Canonicalizer) Canonicalize() error {
	tasks := c.tasks
	slices.SortFunc(tasks, func(a, b canonTask) int { return cmp.Compare(a.id, b.id) })
	for i := range tasks {
		if tasks[i].id != i {
			return fmt.Errorf("taskgraph: decode: task IDs not dense (got %d at position %d)", tasks[i].id, i)
		}
	}
	n := len(tasks)
	for _, e := range c.edges {
		// Mirrors Graph.AddEdge's checks (and their order) exactly.
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("taskgraph: decode: taskgraph: edge (%d,%d): unknown task", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("taskgraph: decode: taskgraph: self-loop on task %d", e.From)
		}
		if e.Bits < 0 {
			return fmt.Errorf("taskgraph: decode: taskgraph: edge (%d,%d): negative volume %g", e.From, e.To, e.Bits)
		}
	}
	// Canonical edge order: stable-sort a copy by (from, to) and merge
	// duplicates by accumulating volumes. Stability preserves arrival
	// order within a duplicate group, so the float sum associates exactly
	// like repeated AddEdge calls — merged volumes are bit-identical to
	// the decoded graph's.
	c.canon = append(c.canon[:0], c.edges...)
	slices.SortStableFunc(c.canon, func(a, b jsonEdge) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
	w := 0
	for _, e := range c.canon {
		if w > 0 && c.canon[w-1].From == e.From && c.canon[w-1].To == e.To {
			c.canon[w-1].Bits += e.Bits
			continue
		}
		c.canon[w] = e
		w++
	}
	c.canon = c.canon[:w]
	c.fp = c.fingerprint()
	c.skOK = false
	return nil
}

// fnv64Offset and fnv64Prime are the FNV-1a parameters of hash/fnv,
// inlined so fingerprinting allocates nothing.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

func fnv1aU64(h, v uint64) uint64 {
	// Big-endian byte order, matching Graph.Fingerprint's
	// binary.BigEndian.PutUint64 + fnv.Write.
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= v >> shift & 0xFF
		h *= fnv64Prime
	}
	return h
}

// fingerprint replicates Graph.Fingerprint over the canonical form: task
// count, clamped loads in ID order, then (from, to, bits) per canonical
// edge.
func (c *Canonicalizer) fingerprint() uint64 {
	h := fnv1aU64(fnv64Offset, uint64(len(c.tasks)))
	for _, t := range c.tasks {
		load := t.load
		if load < 0 {
			load = 0
		}
		h = fnv1aU64(h, math.Float64bits(load))
	}
	for _, e := range c.canon {
		h = fnv1aU64(h, uint64(e.From))
		h = fnv1aU64(h, uint64(e.To))
		h = fnv1aU64(h, math.Float64bits(e.Bits))
	}
	return h
}

// Fingerprint returns the parsed graph's structural fingerprint, equal to
// Graph.Fingerprint of the materialized graph.
func (c *Canonicalizer) Fingerprint() uint64 { return c.fp }

// NumTasks returns the task count of the graph read so far.
func (c *Canonicalizer) NumTasks() int { return len(c.tasks) }

// Sketch returns the parsed graph's structural minhash sketch, equal to
// Graph.Sketch of the materialized graph. It is computed on the first
// call after a parse: only similarity lookups read it, and those happen
// on a cache miss, so a hit never pays for the 64-lane minhash.
func (c *Canonicalizer) Sketch() Sketch {
	if !c.skOK {
		c.sk.Reset()
		for _, t := range c.tasks {
			c.sk.Add(taskShingle(t.id, t.load))
		}
		for _, e := range c.canon {
			c.sk.Add(edgeShingle(e.From, e.To, e.Bits))
		}
		c.skOK = true
	}
	return c.sk
}

// bytes returns the text a span covers.
func (c *Canonicalizer) bytes(s span) []byte { return c.text[s.off:s.end] }

// AppendCanonicalJSON appends the canonical compact JSON encoding to dst
// and returns the extended slice. The bytes are identical to
// Graph.CanonicalJSON of the materialized graph: same structure, same
// encoding/json number and string formats (HTML-escaped), same null
// spellings for empty task/edge lists.
func (c *Canonicalizer) AppendCanonicalJSON(dst []byte) []byte {
	var memo floatMemo
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, c.bytes(c.name))
	dst = append(dst, `,"tasks":`...)
	if len(c.tasks) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range c.tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendInt(dst, int64(t.id), 10)
			if t.name.end > t.name.off {
				dst = append(dst, `,"name":`...)
				dst = appendJSONString(dst, c.bytes(t.name))
			}
			dst = append(dst, `,"load":`...)
			load := t.load
			if load < 0 {
				load = 0 // AddTask's clamp
			}
			dst = memo.append(dst, load)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if len(c.canon) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, e := range c.canon {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"from":`...)
			dst = strconv.AppendInt(dst, int64(e.From), 10)
			dst = append(dst, `,"to":`...)
			dst = strconv.AppendInt(dst, int64(e.To), 10)
			dst = append(dst, `,"bits":`...)
			dst = memo.append(dst, e.Bits)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// Graph materializes the parsed document as a *Graph, exactly as
// Graph.UnmarshalJSON would have: tasks added in ID order, edges in input
// order (so adjacency iteration order — and therefore downstream float
// summation order — is unchanged), then a full Validate for the deferred
// acyclicity check. The names are copied out of the parsed document into
// one string, one allocation for all of them.
func (c *Canonicalizer) Graph() (*Graph, error) {
	size := c.name.end - c.name.off
	for _, t := range c.tasks {
		size += t.name.end - t.name.off
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.Write(c.bytes(c.name))
	for _, t := range c.tasks {
		sb.Write(c.bytes(t.name))
	}
	names, off := sb.String(), 0
	next := func(s span) string {
		n := s.end - s.off
		off += n
		return names[off-n : off]
	}
	fresh := New(next(c.name))
	for _, t := range c.tasks {
		fresh.AddTask(next(t.name), t.load)
	}
	for _, e := range c.edges {
		if err := fresh.AddEdge(TaskID(e.From), TaskID(e.To), e.Bits); err != nil {
			return nil, fmt.Errorf("taskgraph: decode: %w", err)
		}
	}
	if err := fresh.Validate(); err != nil {
		return nil, fmt.Errorf("taskgraph: decode: %w", err)
	}
	return fresh, nil
}

// floatMemo remembers where in dst the last float was formatted, so a
// run of equal values — program graphs share a handful of loads and
// volumes across all their tasks and edges — is formatted once and
// copied after.
type floatMemo struct {
	bits     uint64
	off, end int
}

// append appends f in appendJSONFloat's format.
func (m *floatMemo) append(dst []byte, f float64) []byte {
	if b := math.Float64bits(f); m.end > m.off && b == m.bits {
		return append(dst, dst[m.off:m.end]...)
	}
	off := len(dst)
	dst = appendJSONFloat(dst, f)
	*m = floatMemo{bits: math.Float64bits(f), off: off, end: len(dst)}
	return dst
}

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as an encoding/json string literal with the
// default HTML escaping — byte-identical to json.Marshal(string(s)).
func appendJSONString(dst []byte, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JavaScript string
		// literals; encoding/json escapes them.
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float64 format: shortest
// round-trip representation, 'f' form except for very small or very large
// magnitudes, with the exponent's leading zero trimmed. Inputs come from
// parsed JSON numbers, so NaN and infinities cannot occur.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
