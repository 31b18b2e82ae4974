package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

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

func kindToString(k Kind) string { return k.String() }

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

// EncodeJSON writes the task graph as JSON. Node order defines IDs; edges
// reference node indices.
func (t *TaskGraph) EncodeJSON(w io.Writer) error {
	jg := jsonGraph{Nodes: make([]jsonNode, 0, len(t.Nodes))}
	for _, n := range t.Nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{
			Name: n.Name, Kind: kindToString(n.Kind), In: n.In, Out: n.Out,
		})
	}
	for _, e := range t.G.Edges() {
		jg.Edges = append(jg.Edges, [2]int{int(e.From), int(e.To)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
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
