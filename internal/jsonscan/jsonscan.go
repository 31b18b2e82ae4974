// Package jsonscan is the one-pass JSON scanner behind every hand-written
// codec of the repository: core's task-graph decoder and the scheduling
// service's /v1 submit and result codecs at both ends of the wire. Each
// decoder walks its document with a Scanner and decodes exactly what
// encoding/json would decode into the same struct, quirks included: keys
// match exactly or case-folded, unknown keys are skipped but must be valid
// JSON, null leaves a scalar alone, integers reject fractions, exponents
// and overflow, and strings unquote as encoding/json unquotes them. The
// encoding/json paths each decoder replaced live on in the tests as its
// differential oracle. The Append functions are the writing half: strings
// and floats exactly as json.Marshal writes them, and json.Marshal's
// compaction of a raw value.
package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: its scanner rejects a value
// nested inside more than this many arrays and objects.
const maxDepth = 10000

var errEOF = errors.New("unexpected end of JSON input")

// Scanner walks one JSON document in Data. Each method starts at Off and
// leaves Off just past what it consumed. A value of the wrong JSON type
// fails at once: encoding/json would finish the document first, but
// rejects it either way.
type Scanner struct {
	Data []byte
	Off  int

	stack []byte // Skip's open containers
	// compact, when set, has Skip copy every whitespace-free run of Data
	// to out, escaping HTML in strings (AppendCompact); mark is the start
	// of the run not copied yet.
	compact bool
	out     []byte
	mark    int
}

// SyntaxErr reports invalid JSON at Off.
func (s *Scanner) SyntaxErr(what string) error {
	if s.Off >= len(s.Data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", s.Data[s.Off], what, s.Off)
}

// TypeErr reports a value at Off that cannot decode into a Go value of
// the named kind.
func (s *Scanner) TypeErr(into string) error {
	return fmt.Errorf("cannot unmarshal the value at offset %d into %s", s.Off, into)
}

// Peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) Peek() byte {
	data, i := s.Data, s.Off
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			s.Off = i
			return c
		}
	}
	s.Off = i
	return 0
}

// skipPeek is Peek for Skip and object keys: in compact mode it also
// copies the run before the whitespace it skips.
func (s *Scanner) skipPeek() byte {
	from := s.Off
	c := s.Peek()
	if s.compact && s.Off > from {
		s.flush(from)
		s.mark = s.Off
	}
	return c
}

// Open starts a value that decodes into a Go value of the named kind
// only from JSON that opens with c: it consumes a null and reports false,
// reports true when c is next, and fails otherwise.
func (s *Scanner) Open(c byte, into string) (bool, error) {
	switch s.Peek() {
	case 'n':
		return false, s.Literal("null")
	case c:
		return true, nil
	}
	return false, s.TypeErr(into)
}

// Object consumes an object, calling field with each raw key; field
// consumes the value.
func (s *Scanner) Object(field func(key []byte) error) error {
	s.Off++ // '{'
	if s.Peek() == '}' {
		s.Off++
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch s.Peek() {
		case ',':
			s.Off++
		case '}':
			s.Off++
			return nil
		default:
			return s.SyntaxErr("after object key:value pair")
		}
	}
}

// key consumes an object key and its colon and returns the raw key.
func (s *Scanner) key() ([]byte, error) {
	if s.skipPeek() != '"' {
		return nil, s.SyntaxErr("looking for beginning of object key string")
	}
	key, err := s.Str()
	if err != nil {
		return nil, err
	}
	if s.skipPeek() != ':' {
		return nil, s.SyntaxErr("after object key")
	}
	s.Off++
	return key, nil
}

// Array consumes an array, calling elem with each element's index; elem
// consumes the element. It returns the number of elements decoded.
func (s *Scanner) Array(elem func(i int) error) (int, error) {
	s.Off++ // '['
	if s.Peek() == ']' {
		s.Off++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return i, err
		}
		switch s.Peek() {
		case ',':
			s.Off++
		case ']':
			s.Off++
			return i + 1, nil
		default:
			return i + 1, s.SyntaxErr("after array element")
		}
	}
}

// List decodes an array (or null) into dst as encoding/json decodes into
// a slice that is already there: element i of the array decodes into
// dst's element i, keeping whatever an earlier array wrote to it while
// the backing array lasts; null gives nil and an empty array a fresh
// empty slice.
func List[T any](s *Scanner, dst []T, elem func(*T) error) ([]T, error) {
	switch s.Peek() {
	case 'n':
		return nil, s.Literal("null")
	case '[':
	default:
		return nil, s.TypeErr("a list")
	}
	n, err := s.Array(func(i int) error {
		if i < cap(dst) {
			dst = dst[:i+1]
		} else {
			dst = append(dst, *new(T))
		}
		return elem(&dst[i])
	})
	if n == 0 {
		return []T{}, err
	}
	return dst[:n], err
}

// String decodes a string into *dst, leaving it alone on null.
func (s *Scanner) String(dst *string) error {
	if ok, err := s.Open('"', "a string"); !ok {
		return err
	}
	start := s.Off
	raw, err := s.Str()
	if err == nil {
		*dst = unquote(s.Data[start:s.Off], raw)
	}
	return err
}

// Bool decodes true or false into *dst, leaving it alone on null.
func (s *Scanner) Bool(dst *bool) error {
	switch s.Peek() {
	case 'n':
		return s.Literal("null")
	case 't':
		*dst = true
		return s.Literal("true")
	case 'f':
		*dst = false
		return s.Literal("false")
	}
	return s.TypeErr("a bool")
}

// Int decodes an integer that fits an int64 into *dst, leaving it alone
// on null. A fraction or an exponent is a type error, as in
// encoding/json.
func (s *Scanner) Int(dst *int64) error {
	tok, isInt, err := s.num("an integer")
	if tok == nil || err != nil {
		return err
	}
	if !isInt {
		return s.TypeErr("an int64")
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var u uint64
	for _, c := range tok {
		if u > (1<<63)/10 {
			return s.TypeErr("an int64")
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		*dst = -int64(u-1) - 1
	case !neg && u < 1<<63:
		*dst = int64(u)
	default:
		return s.TypeErr("an int64")
	}
	return nil
}

// Float decodes a number into *dst through strconv.ParseFloat, as
// encoding/json does, leaving it alone on null; a number out of float64
// range is a type error.
func (s *Scanner) Float(dst *float64) error {
	tok, _, err := s.num("a number")
	if tok == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return s.TypeErr("a float64")
	}
	*dst = f
	return nil
}

// num scans a number for a value of the named kind and returns its
// token, or consumes a null and returns none.
func (s *Scanner) num(into string) (tok []byte, isInt bool, err error) {
	switch c := s.Peek(); {
	case c == 'n':
		return nil, false, s.Literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return nil, false, s.TypeErr(into)
	}
	start := s.Off
	isInt, err = s.number()
	return s.Data[start:s.Off], isInt, err
}

// number scans a JSON number and reports whether it has neither fraction
// nor exponent.
func (s *Scanner) number() (isInt bool, err error) {
	data, i := s.Data, s.Off
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
		s.Off = i
		return false, s.SyntaxErr("in numeric literal")
	}
	isInt = true
	if at('.') {
		i++
		isInt = false
		if digits() == 0 {
			s.Off = i
			return false, s.SyntaxErr("after decimal point in numeric literal")
		}
	}
	if at('e') || at('E') {
		i++
		isInt = false
		if at('+') || at('-') {
			i++
		}
		if digits() == 0 {
			s.Off = i
			return false, s.SyntaxErr("in exponent of numeric literal")
		}
	}
	s.Off = i
	return isInt, nil
}

// Str scans a string from its opening quote and returns its raw contents:
// no quotes, escapes unresolved. Like encoding/json's scanner it accepts
// any byte but a control character, invalid UTF-8 included.
func (s *Scanner) Str() ([]byte, error) {
	data := s.Data
	start := s.Off + 1
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			s.Off = i + 1
			if s.compact {
				s.escapeHTML(start, i)
			}
			return data[start:i], nil
		case c < 0x20:
			s.Off = i
			return nil, s.SyntaxErr("in string literal")
		case c == '\\':
			i++
			switch {
			case i >= len(data):
			case strings.IndexByte(`"\/bfnrt`, data[i]) >= 0:
			case data[i] == 'u':
				for end := i + 4; i < end && i+1 < len(data); {
					i++
					if !isHex(data[i]) {
						s.Off = i
						return nil, s.SyntaxErr("in \\u hexadecimal character escape")
					}
				}
			default:
				s.Off = i
				return nil, s.SyntaxErr("in string escape code")
			}
		}
	}
	s.Off = len(data)
	return nil, errEOF
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// plain reports whether raw string contents are the string itself: no
// escapes, valid UTF-8.
func plain(raw []byte) bool {
	return bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw)
}

// unquote resolves a scanned string token (quotes included) whose contents
// are raw. Plain contents are the string itself; anything else goes to
// encoding/json, so escapes and the U+FFFD replacement of invalid UTF-8
// are exactly its own.
func unquote(token, raw []byte) string {
	if plain(raw) {
		return string(raw)
	}
	var str string
	if err := json.Unmarshal(token, &str); err != nil {
		panic("jsonscan: encoding/json rejected a scanned string: " + err.Error())
	}
	return str
}

// AppendUnquoted appends the string that token, a string token the
// scanner accepted (quotes included), stands for; an empty token appends
// nothing.
func AppendUnquoted(dst, token []byte) []byte {
	if len(token) < 2 {
		return dst
	}
	raw := token[1 : len(token)-1]
	if plain(raw) {
		return append(dst, raw...)
	}
	return append(dst, unquote(token, raw)...)
}

// KeyIs reports whether the raw key names the field name, a key of ASCII
// letters, digits and underscores. encoding/json tries an exact match
// first, then a folded one, and the field names of each struct decoded
// here are distinct even folded, so comparing folded forms decides both:
// ASCII letters upper-cased and every other rune mapped to the smallest
// rune of its case-folding orbit (so "ſ" matches "s" and the Kelvin sign
// "k").
func KeyIs(raw []byte, name string) bool {
	ascii := true
	for _, c := range raw {
		if c >= utf8.RuneSelf || c == '\\' {
			ascii = false
			break
		}
	}
	if ascii {
		if len(raw) != len(name) {
			return false
		}
		for i, c := range raw {
			if upper(c) != upper(name[i]) {
				return false
			}
		}
		return true
	}
	quoted := append(append([]byte{'"'}, raw...), '"')
	var out []byte
	for _, r := range unquote(quoted, raw) {
		if r < utf8.RuneSelf {
			r = rune(upper(byte(r)))
		} else {
			r = foldRune(r)
		}
		out = utf8.AppendRune(out, r)
	}
	return string(out) == strings.ToUpper(name)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	return c
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

// Literal consumes lit, whose first byte is next.
func (s *Scanner) Literal(lit string) error {
	for i := 0; i < len(lit); i, s.Off = i+1, s.Off+1 {
		if s.Off >= len(s.Data) || s.Data[s.Off] != lit[i] {
			return s.SyntaxErr("in literal " + lit)
		}
	}
	return nil
}

// Skip consumes any JSON value, checking its syntax and that it nests no
// deeper than maxDepth, counting the depth containers already open around
// it.
func (s *Scanner) Skip(depth int) error {
	stack := s.stack[:0]
	defer func() { s.stack = stack }()
	for {
		// A value starts here.
		switch c := s.skipPeek(); {
		case c == '{' || c == '[':
			if depth+len(stack)+1 > maxDepth {
				return fmt.Errorf("exceeded max depth at offset %d", s.Off)
			}
			s.Off++
			closer := c + 2 // '}' and ']' sit two past their openers
			if s.skipPeek() == closer {
				s.Off++
				break
			}
			stack = append(stack, closer)
			if c == '{' {
				if _, err := s.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, err := s.Str(); err != nil {
				return err
			}
		case c == '-' || c >= '0' && c <= '9':
			if _, err := s.number(); err != nil {
				return err
			}
		case c == 't':
			if err := s.Literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := s.Literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := s.Literal("null"); err != nil {
				return err
			}
		default:
			return s.SyntaxErr("looking for beginning of value")
		}
		// A value ended: close containers until one goes on.
		for {
			if len(stack) == 0 {
				return nil
			}
			closer := stack[len(stack)-1]
			c := s.skipPeek()
			if c != ',' && c != closer {
				return s.SyntaxErr("after a value")
			}
			s.Off++
			if c == closer {
				stack = stack[:len(stack)-1]
				continue
			}
			if closer == '}' {
				if _, err := s.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// AppendCompact appends value, which must be one JSON value (whitespace
// around it aside), with the whitespace between its tokens dropped and
// <, >, &, U+2028 and U+2029 inside its strings escaped: what json.Marshal
// writes for a json.RawMessage. It validates and copies in one pass, each
// whitespace-free run at once.
func AppendCompact(dst, value []byte) ([]byte, error) {
	s := Scanner{Data: value, compact: true, out: dst}
	if err := s.Skip(0); err != nil {
		return dst, err
	}
	if s.skipPeek() != 0 || s.Off < len(value) {
		return dst, s.SyntaxErr("after top-level value")
	}
	s.flush(s.Off)
	return s.out, nil
}

// flush copies the pending run up to end.
func (s *Scanner) flush(end int) {
	s.out = append(s.out, s.Data[s.mark:end]...)
	s.mark = end
}

// escapeHTML escapes the string contents Data[start:end] the way
// encoding/json's compaction does.
func (s *Scanner) escapeHTML(start, end int) {
	const hex = "0123456789abcdef"
	data := s.Data
	for i := start; i < end; i++ {
		switch c := data[i]; {
		case c == '<' || c == '>' || c == '&':
			s.flush(i)
			s.out = append(s.out, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			s.mark = i + 1
		case c == 0xE2 && i+2 < end && data[i+1] == 0x80 && data[i+2]&^1 == 0xA8:
			s.flush(i)
			s.out = append(s.out, '\\', 'u', '2', '0', '2', hex[data[i+2]&0xF])
			s.mark = i + 3
		}
	}
}

// AppendString appends str as json.Marshal writes it. Printable ASCII
// other than the characters encoding/json escapes (", \ and, by default,
// <, > and &) is written as is; any other string goes through
// encoding/json, which escapes control bytes, U+2028 and U+2029 and
// replaces invalid UTF-8.
func AppendString(dst []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(str) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, str...)
	return append(dst, '"')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that round-trips, in 'f' form for 0 and 1e-6 <= |f| < 1e21 and
// in 'e' form otherwise, with a two-digit negative exponent's leading
// zero dropped. NaN and the infinities are json.Marshal's error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 becomes e-7
		dst = dst[:n-1]
	}
	return dst, nil
}
