package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
)

// jsonGraph is the on-disk representation of a canonical task graph, the
// struct encoding/json decodes and encodes in the references.
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

// DecodeJSONReference is the encoding/json decoder DecodeJSON replaced,
// kept as the differential oracle: DecodeJSON must accept exactly the
// inputs it accepts and build exactly the graph it builds.
func DecodeJSONReference(r io.Reader) (*TaskGraph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("core: decoding task graph: %w", err)
	}
	t := New()
	for i, jn := range jg.Nodes {
		k, err := kindFromString(jn.Kind)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		t.add(Node{Kind: k, In: jn.In, Out: jn.Out, Name: jn.Name})
	}
	for i, e := range jg.Edges {
		if e[0] < 0 || e[0] >= len(jg.Nodes) || e[1] < 0 || e[1] >= len(jg.Nodes) {
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

func kindToString(k Kind) string { return k.String() }

// EncodeJSONReference is the encoding/json encoder EncodeJSON replaced,
// kept as the differential oracle: EncodeJSON must write exactly its bytes.
func (t *TaskGraph) EncodeJSONReference(w io.Writer) error {
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
