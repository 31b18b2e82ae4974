package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: its scanner rejects a value
// nested inside more than this many arrays and objects.
const maxDepth = 10000

var errEOF = errors.New("unexpected end of JSON input")

// decoder is DecodeJSON's single-pass scanner, specialised to jsonGraph.
// Each method starts at d.off and leaves d.off just past what it consumed.
// A value of the wrong JSON type fails at once: encoding/json would finish
// the document first, but rejects it either way.
type decoder struct {
	data  []byte
	off   int
	stack []byte // skip's open containers
}

func (d *decoder) syntaxErr(what string) error {
	if d.off >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], what, d.off)
}

func (d *decoder) typeErr(into string) error {
	return fmt.Errorf("cannot unmarshal the value at offset %d into %s", d.off, into)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	data, i := d.data, d.off
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.off = i
			return c
		}
	}
	d.off = i
	return 0
}

// graph decodes the top-level value into jg.
func (d *decoder) graph(jg *jsonGraph) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	case 0:
		return io.EOF
	default:
		return d.typeErr("a task graph")
	}
	return d.object(func(key []byte) (err error) {
		switch {
		case keyIs(key, "NODES"):
			jg.Nodes, err = list(d, jg.Nodes, d.node)
		case keyIs(key, "EDGES"):
			jg.Edges, err = list(d, jg.Edges, d.edge)
		default:
			err = d.skip(1)
		}
		return err
	})
}

// list decodes an array (or null) into s as encoding/json decodes into a
// slice that is already there: element i of the array decodes into s's
// element i, keeping whatever an earlier array wrote to it while the
// backing array lasts; null gives nil and an empty array a fresh empty
// slice.
func list[T any](d *decoder, s []T, elem func(*T) error) ([]T, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.typeErr("a list")
	}
	n, err := d.array(func(i int) error {
		if i < cap(s) {
			s = s[:i+1]
		} else {
			s = append(s, *new(T))
		}
		return elem(&s[i])
	})
	if n == 0 {
		return []T{}, err
	}
	return s[:n], err
}

func (d *decoder) node(n *jsonNode) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeErr("a node")
	}
	return d.object(func(key []byte) error {
		switch {
		case keyIs(key, "NAME"):
			return d.stringField(&n.Name)
		case keyIs(key, "KIND"):
			return d.stringField(&n.Kind)
		case keyIs(key, "IN"):
			return d.intField(&n.In)
		case keyIs(key, "OUT"):
			return d.intField(&n.Out)
		}
		return d.skip(3)
	})
}

// edge decodes one [from, to] pair: missing elements become 0 and extra
// ones are checked for syntax only.
func (d *decoder) edge(e *[2]int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.typeErr("an edge")
	}
	n, err := d.array(func(i int) error {
		if i >= len(e) {
			return d.skip(3)
		}
		v := int64(e[i])
		if err := d.intField(&v); err != nil {
			return err
		}
		if int64(int(v)) != v {
			return d.typeErr("an int")
		}
		e[i] = int(v)
		return nil
	})
	for i := n; i < len(e); i++ {
		e[i] = 0
	}
	return err
}

// object consumes an object, calling field with each raw key; field
// consumes the value.
func (d *decoder) object(field func(key []byte) error) error {
	d.off++ // '{'
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			return nil
		default:
			return d.syntaxErr("after object key:value pair")
		}
	}
}

// key consumes an object key and its colon and returns the raw key.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntaxErr("looking for beginning of object key string")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.syntaxErr("after object key")
	}
	d.off++
	return key, nil
}

// array consumes an array, calling elem with each element's index; elem
// consumes the element. It returns the number of elements decoded.
func (d *decoder) array(elem func(i int) error) (int, error) {
	d.off++ // '['
	if d.peek() == ']' {
		d.off++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return i, err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			return i + 1, nil
		default:
			return i + 1, d.syntaxErr("after array element")
		}
	}
}

// stringField decodes a string into *s, leaving it alone on null.
func (d *decoder) stringField(s *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeErr("a string")
	}
	start := d.off
	raw, err := d.str()
	if err == nil {
		*s = unquote(d.data[start:d.off], raw)
	}
	return err
}

// intField decodes an integer that fits an int64 into *v, leaving it
// alone on null. A fraction or an exponent is a type error, as in
// encoding/json.
func (d *decoder) intField(v *int64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
	default:
		return d.typeErr("an integer")
	}
	start := d.off
	isInt, err := d.number()
	if err != nil {
		return err
	}
	if !isInt {
		return d.typeErr("an int64")
	}
	tok := d.data[start:d.off]
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var u uint64
	for _, c := range tok {
		if u > (1<<63)/10 {
			return d.typeErr("an int64")
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		*v = -int64(u-1) - 1
	case !neg && u < 1<<63:
		*v = int64(u)
	default:
		return d.typeErr("an int64")
	}
	return nil
}

// number scans a JSON number and reports whether it has neither fraction
// nor exponent.
func (d *decoder) number() (isInt bool, err error) {
	data, i := d.data, d.off
	digits := func() int {
		j := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return i - j
	}
	at := func(c byte) bool { return i < len(data) && data[i] == c }
	if at('-') {
		i++
	}
	if at('0') {
		i++
	} else if digits() == 0 {
		d.off = i
		return false, d.syntaxErr("in numeric literal")
	}
	isInt = true
	if at('.') {
		i++
		isInt = false
		if digits() == 0 {
			d.off = i
			return false, d.syntaxErr("after decimal point in numeric literal")
		}
	}
	if at('e') || at('E') {
		i++
		isInt = false
		if at('+') || at('-') {
			i++
		}
		if digits() == 0 {
			d.off = i
			return false, d.syntaxErr("in exponent of numeric literal")
		}
	}
	d.off = i
	return isInt, nil
}

// str scans a string from its opening quote and returns its raw contents:
// no quotes, escapes unresolved. Like encoding/json's scanner it accepts
// any byte but a control character, invalid UTF-8 included.
func (d *decoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return data[start:i], nil
		case c < 0x20:
			d.off = i
			return nil, d.syntaxErr("in string literal")
		case c == '\\':
			i++
			switch {
			case i >= len(data):
			case strings.IndexByte(`"\/bfnrt`, data[i]) >= 0:
			case data[i] == 'u':
				for end := i + 4; i < end && i+1 < len(data); {
					i++
					if !isHex(data[i]) {
						d.off = i
						return nil, d.syntaxErr("in \\u hexadecimal character escape")
					}
				}
			default:
				d.off = i
				return nil, d.syntaxErr("in string escape code")
			}
		}
	}
	d.off = len(data)
	return nil, errEOF
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// unquote resolves a scanned string token (quotes included) whose contents
// are raw. Contents without escapes that are valid UTF-8 are the string
// itself; anything else goes to encoding/json, so escapes and the U+FFFD
// replacement of invalid UTF-8 are exactly its own.
func unquote(token, raw []byte) string {
	if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		switch string(raw) { // the four kinds, without an allocation each
		case "compute":
			return "compute"
		case "buffer":
			return "buffer"
		case "source":
			return "source"
		case "sink":
			return "sink"
		}
		return string(raw)
	}
	var s string
	if err := json.Unmarshal(token, &s); err != nil {
		panic("core: encoding/json rejected a scanned string: " + err.Error())
	}
	return s
}

// keyIs reports whether the raw key names the field whose folded name is
// folded. encoding/json tries an exact match first, then a folded one, and
// every field name here is distinct even folded, so comparing folded forms
// decides both: ASCII letters upper-cased and every other rune mapped to
// the smallest rune of its case-folding orbit (so "ſ" matches "s" and the
// Kelvin sign "k").
func keyIs(raw []byte, folded string) bool {
	plain := true
	for _, c := range raw {
		if c >= utf8.RuneSelf || c == '\\' {
			plain = false
			break
		}
	}
	if plain {
		if len(raw) != len(folded) {
			return false
		}
		for i, c := range raw {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != folded[i] {
				return false
			}
		}
		return true
	}
	quoted := append(append([]byte{'"'}, raw...), '"')
	var out []byte
	for _, r := range unquote(quoted, raw) {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		out = utf8.AppendRune(out, r)
	}
	return string(out) == folded
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// literal consumes lit, whose first byte is next.
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i, d.off = i+1, d.off+1 {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxErr("in literal " + lit)
		}
	}
	return nil
}

// skip consumes any JSON value, checking its syntax and that it nests no
// deeper than maxDepth, counting the depth containers already open around
// it.
func (d *decoder) skip(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack }()
	for {
		// A value starts here.
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if depth+len(stack)+1 > maxDepth {
				return fmt.Errorf("exceeded max depth at offset %d", d.off)
			}
			d.off++
			closer := c + 2 // '}' and ']' sit two past their openers
			if d.peek() == closer {
				d.off++
				break
			}
			stack = append(stack, closer)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case c == '-' || c >= '0' && c <= '9':
			if _, err := d.number(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.syntaxErr("looking for beginning of value")
		}
		// A value ended: close containers until one goes on.
		for {
			if len(stack) == 0 {
				return nil
			}
			closer := stack[len(stack)-1]
			c := d.peek()
			if c != ',' && c != closer {
				return d.syntaxErr("after a value")
			}
			d.off++
			if c == closer {
				stack = stack[:len(stack)-1]
				continue
			}
			if closer == '}' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}
