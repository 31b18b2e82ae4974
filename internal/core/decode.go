package core

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/graph"
	"repro/internal/jsonscan"
)

// document is what DecodeJSON reads: the reference decoder's jsonGraph,
// with each name unquoted into an arena and each kind classified as it is
// scanned, so nothing refers back to the scanned bytes.
type document struct {
	names arena
	nodes list[docNode]
	edges list[[2]int32] // an index past the node range as -1
	// badKind holds the text of each node's kind that names no Kind.
	badKind map[int]string
}

type docNode struct {
	in, out int64
	name    string
	kind    byte // Kind+1, or 0 for none
}

// arena is where node names are unquoted to as they are scanned: each is
// a substring of a chunk that strings.Builder writes once, so a name is
// neither allocated alone nor copied again. Chunks double up to
// arenaChunk bytes.
type arena struct{ b strings.Builder }

const arenaChunk = 64 << 10

// add scans a string from its opening quote and returns it in the arena.
func (a *arena) add(s *jsonscan.Scanner) (string, error) {
	str, err := s.Unquoted()
	if err != nil || len(str) == 0 {
		return "", err
	}
	if a.b.Cap()-a.b.Len() < len(str) {
		size := min(max(2*a.b.Cap(), 256), arenaChunk)
		a.b = strings.Builder{}
		a.b.Grow(max(size, len(str)))
	}
	start := a.b.Len()
	a.b.Write(str)
	return a.b.String()[start:], nil
}

// list is a decoded array's elements, held in chunks of listChunk so that
// growing it copies nothing. A repeated array decodes each element into
// the one an earlier array left at its index, as encoding/json decodes
// into a slice that is already there: every element decoded since the
// array was last null or empty is still in the backing array.
type list[T any] struct {
	chunks [][]T
	n      int // elements of the last array
}

const (
	listShift = 12
	listChunk = 1 << listShift
)

// at returns element i of the array being decoded, which holds i
// elements so far: the one an earlier array left there, or a new zero one.
func (l *list[T]) at(i int) *T {
	k, j := i>>listShift, i&(listChunk-1)
	if k == len(l.chunks) {
		size := listChunk
		if k == 0 {
			size = 0 // grown by append: most graphs are small
		}
		l.chunks = append(l.chunks, make([]T, 0, size))
	}
	c := &l.chunks[k]
	if j == len(*c) {
		*c = append(*c, *new(T))
	}
	return &(*c)[j]
}

// get returns element i of the last array.
func (l *list[T]) get(i int) *T { return &l.chunks[i>>listShift][i&(listChunk-1)] }

// reset empties the list and its backing array, as null or [] does.
func (l *list[T]) reset() {
	for k := range l.chunks {
		l.chunks[k] = l.chunks[k][:0]
	}
	l.n = 0
}

// decoder is DecodeJSON's single pass over a document on the shared
// scanner.
type decoder struct {
	*jsonscan.Scanner
	doc document
}

// decodeList decodes an array (or null) into l, calling elem with each
// element's index and the element to decode into.
func decodeList[T any](d *decoder, l *list[T], elem func(int, *T) error) error {
	switch d.Peek() {
	case 'n':
		l.reset()
		return d.Literal("null")
	case '[':
	default:
		return d.TypeErr("a list")
	}
	n := 0
	more, err := d.NextElem(true)
	for ; more; more, err = d.NextElem(false) {
		if err := elem(n, l.at(n)); err != nil {
			return err
		}
		n++
	}
	if l.n = n; n == 0 {
		l.reset()
	}
	return err
}

// field returns the first byte of the name in names that key matches,
// exactly or else case-folded as encoding/json matches keys, or 0. The
// names start with distinct bytes.
func field(key []byte, names ...string) byte {
	for _, name := range names {
		if jsonscan.KeyIs(key, name) {
			return name[0]
		}
	}
	return 0
}

// graph decodes the value at the scanner's offset, counting depth
// containers already open around it.
func (d *decoder) graph(depth int) error {
	switch d.Peek() {
	case 'n':
		return d.Literal("null")
	case '{':
	case 0:
		return io.EOF
	default:
		return d.TypeErr("a task graph")
	}
	return d.Object(func(key []byte) error {
		switch field(key, "nodes", "edges") {
		case 'n':
			err := decodeList(d, &d.doc.nodes, func(i int, n *docNode) error { return d.node(i, n, depth+3) })
			if d.doc.nodes.n == 0 {
				d.doc.badKind = nil
			}
			return err
		case 'e':
			return decodeList(d, &d.doc.edges, func(_ int, e *[2]int32) error { return d.edge(e, depth+3) })
		}
		return d.Skip(depth + 1)
	})
}

// node decodes node i into n.
func (d *decoder) node(i int, n *docNode, depth int) error {
	if ok, err := d.Open('{', "a node"); !ok {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.NextKey(first)
		if !ok {
			return err
		}
		f := byte(0)
		switch string(key) { // the exact match first: KeyIs folds
		case "name", "kind", "in", "out":
			f = key[0]
		default:
			f = field(key, "name", "kind", "in", "out")
		}
		switch f {
		case 'n':
			err = d.name(n)
		case 'k':
			err = d.kindOf(i, n)
		case 'i':
			err = d.Int(&n.in)
		case 'o':
			err = d.Int(&n.out)
		default:
			err = d.Skip(depth)
		}
		if err != nil {
			return err
		}
	}
}

// name decodes a string into the names arena, leaving n alone on null.
func (d *decoder) name(n *docNode) (err error) {
	if ok, err := d.Open('"', "a string"); !ok {
		return err
	}
	n.name, err = d.doc.names.add(d.Scanner)
	return err
}

// kindOf decodes the kind of node i into n, leaving it alone on null.
func (d *decoder) kindOf(i int, n *docNode) error {
	if ok, err := d.Open('"', "a string"); !ok {
		return err
	}
	str, err := d.Unquoted()
	if err != nil {
		return err
	}
	k, ok := kindNamed(str)
	if !ok {
		if d.doc.badKind == nil {
			d.doc.badKind = map[int]string{}
		}
		d.doc.badKind[i] = string(str)
		n.kind = 0
		return nil
	}
	n.kind = byte(k) + 1
	return nil
}

// edge decodes one [from, to] pair: missing elements become 0 and extra
// ones are checked for syntax only.
func (d *decoder) edge(e *[2]int32, depth int) error {
	if ok, err := d.Open('[', "an edge"); !ok {
		return err
	}
	i := 0
	more, err := d.NextElem(true)
	for ; more; more, err = d.NextElem(false) {
		if i >= len(e) {
			if err := d.Skip(depth); err != nil {
				return err
			}
			continue
		}
		v := int64(e[i])
		if err := d.Int(&v); err != nil {
			return err
		}
		if int64(int(v)) != v {
			return d.TypeErr("an int")
		}
		if v < 0 || v > math.MaxInt32 {
			v = -1 // outside the node range as v is: build rejects both
		}
		e[i] = int32(v)
		i++
	}
	for ; i < len(e); i++ {
		e[i] = 0
	}
	return err
}

// build turns the decoded document into a frozen task graph.
func (doc *document) build() (*TaskGraph, error) {
	n := doc.nodes.n
	t := &TaskGraph{G: graph.NewWithCapacity(doc.edges.n), Nodes: make([]Node, n)}
	for i := range t.Nodes {
		dn := doc.nodes.get(i)
		if dn.kind == 0 {
			_, err := kindFromString(doc.badKind[i])
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		t.Nodes[i] = Node{Kind: Kind(dn.kind - 1), In: dn.in, Out: dn.out, Name: dn.name}
		t.G.AddNode()
	}
	for i := 0; i < doc.edges.n; i++ {
		e := doc.edges.get(i)
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
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
