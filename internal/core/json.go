package core

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/graph"
	"repro/internal/jsonscan"
)

func kindFromString(s string) (Kind, error) {
	if k, ok := kindNamed(s); ok {
		return k, nil
	}
	return 0, fmt.Errorf("core: unknown node kind %q", s)
}

// kindNamed returns the Kind whose String is name.
func kindNamed[S string | []byte](name S) (Kind, bool) {
	switch string(name) {
	case "compute":
		return Compute, true
	case "buffer":
		return Buffer, true
	case "source":
		return Source, true
	case "sink":
		return Sink, true
	}
	return 0, false
}

// EncodeJSON writes the task graph as canonical JSON, the bytes
// results.Fingerprint hashes. Node order defines IDs; edges reference node
// indices, sorted by (from, to). The bytes are those of encoding/json's
// indented Encoder on the document struct of DecodeJSON's comment
// (EncodeJSONReference, the test oracle),
// written through one fixed buffer by walking the successor arrays in
// place; only a node whose successors were added out of order has them
// copied, into one scratch slice, to be sorted.
func (t *TaskGraph) EncodeJSON(w io.Writer) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		// Grow a bytes.Buffer to the document's size first, as one write
		// of it would: a caller keeping the bytes then keeps no slack.
		var n byteCount
		_ = t.EncodeJSON(&n) // counting never fails
		g.Grow(int(n))
	}
	e := encoder{w: w, buf: make([]byte, 0, 32<<10)}
	e.str("{\n  \"nodes\": [")
	open := "\n    {\n      "
	for _, n := range t.Nodes {
		e.str(open)
		open = ",\n    {\n      "
		if n.Name != "" {
			e.str(`"name": `)
			e.quote(n.Name)
			e.str(",\n      ")
		}
		e.str(`"kind": `)
		e.quote(n.Kind.String())
		if n.In != 0 {
			e.str(",\n      \"in\": ")
			e.int(n.In)
		}
		if n.Out != 0 {
			e.str(",\n      \"out\": ")
			e.int(n.Out)
		}
		e.str("\n    }")
	}
	if len(t.Nodes) > 0 {
		e.str("\n  ")
	}
	e.str("],\n  \"edges\": ")
	if t.G.NumEdges() == 0 {
		e.str("null")
	} else {
		e.str("[")
		var scratch []graph.NodeID
		pre, cut := make([]byte, 0, 48), 1 // pre opens each of u's edges; the first drops its comma
		for u := 0; u < t.G.Len(); u++ {
			succs := t.G.Succs(graph.NodeID(u))
			if !slices.IsSorted(succs) {
				scratch = append(scratch[:0], succs...)
				slices.Sort(scratch)
				succs = scratch
			}
			pre = append(strconv.AppendInt(append(pre[:0], ",\n    [\n      "...), int64(u), 10), ",\n      "...)
			for _, v := range succs {
				e.room(len(pre) + 32)
				e.buf = append(strconv.AppendInt(append(e.buf, pre[cut:]...), int64(v), 10), "\n    ]"...)
				cut = 0
			}
		}
		e.str("\n  ]")
	}
	e.str("\n}\n")
	return e.flush()
}

// byteCount is a writer that only counts.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) { *c += byteCount(len(p)); return len(p), nil }

// encoder is EncodeJSON's output: bytes collect in buf, which is written
// to w whenever it fills. The first write error sticks.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *encoder) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// room flushes the buffer unless n more bytes fit.
func (e *encoder) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *encoder) str(s string) {
	for len(e.buf)+len(s) > cap(e.buf) { // a long name: fill, flush, repeat
		n := copy(e.buf[len(e.buf):cap(e.buf)], s)
		e.buf, s = e.buf[:cap(e.buf)], s[n:]
		e.flush()
	}
	e.buf = append(e.buf, s...)
}

func (e *encoder) int(v int64) {
	e.room(20)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// quote writes s as json.Marshal writes a string.
func (e *encoder) quote(s string) {
	e.room(len(s) + 2)
	e.buf = jsonscan.AppendString(e.buf, s)
}

// DecodeJSON reads a task graph written by EncodeJSON (or authored by hand)
// and validates it. The result is frozen and ready for analysis.
//
// The accepted language is exactly what encoding/json's Decoder accepts
// when decoding the first JSON value of r into
//
//	struct {
//		Nodes []struct{ Name, Kind string; In, Out int64 } `json:"nodes"`
//		Edges [][2]int                                      `json:"edges"`
//	}
//
// and the graph built is the one that struct describes. That includes the
// quirks: keys match exactly or case-folded; unknown keys are skipped but
// must be valid JSON; a repeated key decodes again into the same field,
// and a repeated array into the same elements, so later values overwrite
// earlier ones field by field; null leaves a field as it was (and a null
// array nil); an edge written [a] is [a,0], and elements after the second
// are syntax-checked then dropped; integers reject fractions, exponents
// and overflow; strings are unquoted as encoding/json unquotes them,
// invalid UTF-8 becoming U+FFFD; a top-level null is the empty graph; and
// bytes after the first value are ignored (r is still read to EOF, and a
// read error anywhere fails the decode). A test-only decoder that calls
// encoding/json is the differential oracle for all of this
// (FuzzDecodeJSONVsReference).
//
// The decoder is one pass without reflection that decodes as it reads:
// r is read through a window of jsonscan.Window bytes, never held whole,
// and each name is unquoted into the graph's name arena as it is
// scanned.
func DecodeJSON(r io.Reader) (*TaskGraph, error) {
	return decodeReader(r, jsonscan.Window)
}

// decodeReader is DecodeJSON through a window of size bytes.
func decodeReader(r io.Reader, size int) (*TaskGraph, error) {
	s := jsonscan.NewReader(r, size)
	t, err := DecodeJSONAt(s, 0)
	if err == nil {
		s.Discard()
	}
	if rerr := s.ReadErr(); rerr != nil {
		return nil, fmt.Errorf("core: decoding task graph: %w", rerr)
	}
	return t, err
}

// DecodeJSONBytes is DecodeJSON on a document already in memory: the
// same pass, with no reader. The graph keeps no reference to data.
func DecodeJSONBytes(data []byte) (*TaskGraph, error) {
	return DecodeJSONAt(&jsonscan.Scanner{Data: data}, 0)
}

// DecodeJSONAt decodes the graph value at s's offset, a value nested in
// depth arrays and objects of an enclosing document, and leaves s just
// past it (or where the value failed to decode). It accepts what
// DecodeJSON accepts of the value's bytes alone, wherever encoding/json
// accepts the enclosing document.
func DecodeJSONAt(s *jsonscan.Scanner, depth int) (*TaskGraph, error) {
	d := decoder{Scanner: s}
	if err := d.graph(depth); err != nil {
		return nil, fmt.Errorf("core: decoding task graph: %w", err)
	}
	return d.doc.build()
}
