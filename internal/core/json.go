package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/graph"
)

// jsonGraph is the on-disk representation of a canonical task graph.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges"`
}

type jsonNode struct {
	Name string `json:"name,omitempty"`
	Kind string `json:"kind"`
	In   int64  `json:"in,omitempty"`
	Out  int64  `json:"out,omitempty"`
}

func kindFromString(s string) (Kind, error) {
	switch s {
	case "compute":
		return Compute, nil
	case "buffer":
		return Buffer, nil
	case "source":
		return Source, nil
	case "sink":
		return Sink, nil
	}
	return 0, fmt.Errorf("core: unknown node kind %q", s)
}

// EncodeJSON writes the task graph as canonical JSON, the bytes
// results.Fingerprint hashes. Node order defines IDs; edges reference node
// indices, sorted by (from, to). The bytes are those of encoding/json's
// indented Encoder on jsonGraph (EncodeJSONReference, the test oracle),
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

// quote writes s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes (", \ and, by default, <, > and &) is
// written as is; any other string goes through encoding/json, which
// escapes control bytes, U+2028 and U+2029 and replaces invalid UTF-8.
func (e *encoder) quote(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.str(string(q))
			return
		}
	}
	e.str(`"`)
	e.str(s)
	e.str(`"`)
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
// bytes after the first value are ignored (r is still read to EOF). A
// test-only decoder that calls encoding/json is the differential oracle
// for all of this (FuzzDecodeJSONVsReference). The decoder itself is one
// pass over the bytes without reflection.
func DecodeJSON(r io.Reader) (*TaskGraph, error) {
	// bytes.Buffer doubles where io.ReadAll grows by a quarter, which
	// copies a large document several times over.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("core: decoding task graph: %w", err)
	}
	var jg jsonGraph
	d := decoder{data: buf.Bytes()}
	if err := d.graph(&jg); err != nil {
		return nil, fmt.Errorf("core: decoding task graph: %w", err)
	}
	return jg.build()
}

// build turns the decoded document into a frozen task graph.
func (jg *jsonGraph) build() (*TaskGraph, error) {
	n := len(jg.Nodes)
	t := &TaskGraph{G: graph.NewWithCapacity(len(jg.Edges)), Nodes: make([]Node, 0, n)}
	for i, jn := range jg.Nodes {
		k, err := kindFromString(jn.Kind)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		t.add(Node{Kind: k, In: jn.In, Out: jn.Out, Name: jn.Name})
	}
	for i, e := range jg.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("core: edge %d references unknown node", i)
		}
		if err := t.Connect(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			return nil, fmt.Errorf("core: edge %d: %w", i, err)
		}
	}
	if err := t.Freeze(); err != nil {
		return nil, err
	}
	return t, nil
}
