package core

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/jsonscan"
)

// document is what DecodeJSON reads: the reference decoder's jsonGraph,
// with each string kept as the span of its token in the scanned bytes
// (zero when absent) until the graph is built.
type document struct {
	nodes []docNode
	edges [][2]int
}

type docNode struct {
	name, kind [2]int
	in, out    int64
}

// decoder is DecodeJSON's single pass over a document on the shared
// scanner.
type decoder struct {
	*jsonscan.Scanner
}

// graph decodes the value at the scanner's offset into doc, counting
// depth containers already open around it.
func (d *decoder) graph(doc *document, depth int) error {
	switch d.Peek() {
	case 'n':
		return d.Literal("null")
	case '{':
	case 0:
		return io.EOF
	default:
		return d.TypeErr("a task graph")
	}
	return d.Object(func(key []byte) (err error) {
		switch {
		case jsonscan.KeyIs(key, "nodes"):
			doc.nodes, err = jsonscan.List(d.Scanner, doc.nodes, func(n *docNode) error { return d.node(n, depth+3) })
		case jsonscan.KeyIs(key, "edges"):
			doc.edges, err = jsonscan.List(d.Scanner, doc.edges, func(e *[2]int) error { return d.edge(e, depth+3) })
		default:
			err = d.Skip(depth + 1)
		}
		return err
	})
}

func (d *decoder) node(n *docNode, depth int) error {
	if ok, err := d.Open('{', "a node"); !ok {
		return err
	}
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.KeyIs(key, "name"):
			return d.token(&n.name)
		case jsonscan.KeyIs(key, "kind"):
			return d.token(&n.kind)
		case jsonscan.KeyIs(key, "in"):
			return d.Int(&n.in)
		case jsonscan.KeyIs(key, "out"):
			return d.Int(&n.out)
		}
		return d.Skip(depth)
	})
}

// token decodes a string into the span of its token, leaving it alone on
// null.
func (d *decoder) token(span *[2]int) error {
	if ok, err := d.Open('"', "a string"); !ok {
		return err
	}
	start := d.Off
	_, err := d.Str()
	*span = [2]int{start, d.Off}
	return err
}

// edge decodes one [from, to] pair: missing elements become 0 and extra
// ones are checked for syntax only.
func (d *decoder) edge(e *[2]int, depth int) error {
	if ok, err := d.Open('[', "an edge"); !ok {
		return err
	}
	n, err := d.Array(func(i int) error {
		if i >= len(e) {
			return d.Skip(depth)
		}
		v := int64(e[i])
		if err := d.Int(&v); err != nil {
			return err
		}
		if int64(int(v)) != v {
			return d.TypeErr("an int")
		}
		e[i] = int(v)
		return nil
	})
	for i := n; i < len(e); i++ {
		e[i] = 0
	}
	return err
}

// build turns the decoded document, whose tokens are in data, into a
// frozen task graph. The node names share one string sized to their
// tokens: no allocation per name, and no reference to data.
func (doc *document) build(data []byte) (*TaskGraph, error) {
	size := 0
	for _, n := range doc.nodes {
		size += n.name[1] - n.name[0]
	}
	arena := make([]byte, 0, size)
	for i := range doc.nodes {
		n := &doc.nodes[i]
		start := len(arena)
		arena = jsonscan.AppendUnquoted(arena, data[n.name[0]:n.name[1]])
		n.name = [2]int{start, len(arena)}
	}
	names := string(arena)
	n := len(doc.nodes)
	t := &TaskGraph{G: graph.NewWithCapacity(len(doc.edges)), Nodes: make([]Node, 0, n)}
	for i, dn := range doc.nodes {
		var k Kind
		switch tok := data[dn.kind[0]:dn.kind[1]]; string(tok) { // no allocation for the plain kinds
		case `"compute"`:
			k = Compute
		case `"buffer"`:
			k = Buffer
		case `"source"`:
			k = Source
		case `"sink"`:
			k = Sink
		default:
			var err error
			if k, err = kindFromString(string(jsonscan.AppendUnquoted(nil, tok))); err != nil {
				return nil, fmt.Errorf("core: node %d: %w", i, err)
			}
		}
		t.add(Node{Kind: k, In: dn.in, Out: dn.out, Name: names[dn.name[0]:dn.name[1]]})
	}
	for i, e := range doc.edges {
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
