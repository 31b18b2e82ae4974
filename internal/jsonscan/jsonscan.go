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
//
// A Scanner walks a document in memory (Data), or one it reads from a
// source through a fixed window (NewReader): each token scan that reaches
// the window's end slides the consumed bytes out and reads on, so a
// document is decoded as it arrives and never held whole.
package jsonscan

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Window is the size of the buffer a Scanner reads its source through.
// It grows only when one token is larger.
const Window = 1 << 20

// maxDepth is encoding/json's nesting limit: its scanner rejects a value
// nested inside more than this many arrays and objects.
const maxDepth = 10000

var errEOF = errors.New("unexpected end of JSON input")

// Scanner walks one JSON document in Data. Each method starts at Off and
// leaves Off just past what it consumed. A value of the wrong JSON type
// fails at once: encoding/json would finish the document first, but
// rejects it either way.
//
// With a source (NewReader), Data is a window onto the document: a byte
// slice a method returns is valid until the next method call.
type Scanner struct {
	Data []byte
	Off  int

	src    io.Reader
	err    error // the source's first error; io.EOF at its end
	base   int   // bytes of the document slid out before Data[0]
	keyBuf []byte

	stack []byte // Skip's open containers
	// compact, when set, has Skip copy every whitespace-free run of Data
	// to out, escaping HTML in strings (AppendCompact); mark is the start
	// of the run not copied yet.
	compact bool
	out     []byte
	mark    int
}

// NewReader returns a Scanner that reads the document from r through a
// window of size bytes (Window outside tests), or of one byte more than
// r holds when r reports its length and that is less.
func NewReader(r io.Reader, size int) *Scanner {
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		size = l.Len() + 1
	}
	return &Scanner{Data: make([]byte, 0, max(size, 1)), src: r}
}

// fill reads more of the source into the window and reports whether it
// read anything. It keeps Data[Off:], sliding it to the window's start
// when the window is full and growing the window when Data[Off:] fills
// it: a position past Off must be kept relative to Off across a call.
func (s *Scanner) fill() bool {
	if s.src == nil || s.err != nil {
		return false
	}
	if len(s.Data) == cap(s.Data) {
		buf := s.Data[:0]
		if s.Off == 0 {
			buf = make([]byte, 0, 2*cap(s.Data))
		}
		s.base += s.Off
		s.Data, s.Off = append(buf, s.Data[s.Off:]...), 0
	}
	for range 100 {
		n, err := s.src.Read(s.Data[len(s.Data):cap(s.Data)])
		s.Data = s.Data[:len(s.Data)+n]
		if err != nil {
			s.err = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	s.err = io.ErrNoProgress
	return false
}

// want reads until the window holds n bytes from Off or the document
// ends.
func (s *Scanner) want(n int) {
	for len(s.Data)-s.Off < n && s.fill() {
	}
}

// ReadErr returns the error the source failed with, nil if none did or
// it only ended.
func (s *Scanner) ReadErr() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// Discard reads the source to its end, dropping what it reads; ReadErr
// then says whether that failed.
func (s *Scanner) Discard() {
	for s.Off = len(s.Data); s.fill(); s.Off = len(s.Data) {
	}
}

// SyntaxErr reports invalid JSON at Off.
func (s *Scanner) SyntaxErr(what string) error {
	if s.Off >= len(s.Data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", s.Data[s.Off], what, s.base+s.Off)
}

// TypeErr reports a value at Off that cannot decode into a Go value of
// the named kind.
func (s *Scanner) TypeErr(into string) error {
	return fmt.Errorf("cannot unmarshal the value at offset %d into %s", s.base+s.Off, into)
}

// Peek skips whitespace and returns the next byte, or 0 at the end. It
// stays small enough to inline: all but a non-space next byte takes the
// slow path.
func (s *Scanner) Peek() (c byte) {
	if s.Off < len(s.Data) {
		if c = s.Data[s.Off]; c > ' ' {
			return
		}
	}
	return s.peekSlow()
}

// wsMask has bit c set for each JSON whitespace byte c.
const wsMask = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'

func (s *Scanner) peekSlow() byte {
	for {
		data, i := s.Data, s.Off
		// Indented JSON is whitespace runs of spaces after a newline: skip
		// the spaces eight at a time.
		for i+8 <= len(data) {
			v := binary.LittleEndian.Uint64(data[i:]) ^ 0x2020202020202020
			if v == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(v) >> 3
			if c := data[i]; c > ' ' || wsMask>>c&1 == 0 {
				s.Off = i
				return c
			}
			i++
		}
		for ; i < len(data); i++ {
			if c := data[i]; c > ' ' || wsMask>>c&1 == 0 {
				s.Off = i
				return c
			}
		}
		s.Off = i
		if !s.fill() {
			return 0
		}
	}
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
// consumes the value, and key is valid until it starts to.
func (s *Scanner) Object(field func(key []byte) error) error {
	for first := true; ; first = false {
		key, ok, err := s.NextKey(first)
		if !ok {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
	}
}

// NextKey steps through an object without a callback: first at its
// opening brace, then after each member's value, it consumes up to the
// next key and its colon and returns the raw key, valid until the next
// call; ok is false once it has consumed the closing brace, or on error.
func (s *Scanner) NextKey(first bool) (key []byte, ok bool, err error) {
	if first {
		s.Off++ // '{'
		if s.Peek() == '}' {
			s.Off++
			return nil, false, nil
		}
	} else {
		switch s.Peek() {
		case ',':
			s.Off++
		case '}':
			s.Off++
			return nil, false, nil
		default:
			return nil, false, s.SyntaxErr("after object key:value pair")
		}
	}
	key, err = s.key()
	return key, err == nil, err
}

// key consumes an object key and its colon and returns the raw key.
func (s *Scanner) key() ([]byte, error) {
	c := byte(0)
	if s.compact {
		c = s.skipPeek()
	} else {
		c = s.Peek()
	}
	if c != '"' {
		return nil, s.SyntaxErr("looking for beginning of object key string")
	}
	key, _, err := s.str()
	if err != nil {
		return nil, err
	}
	if s.Off < len(s.Data) && s.Data[s.Off] == ':' {
		s.Off++
		if !s.compact && s.Off < len(s.Data) && s.Data[s.Off] == ' ' {
			s.Off++ // the space indented JSON puts after a colon
		}
		return key, nil
	}
	if s.src != nil {
		// Reading on to the colon may slide the window under key.
		s.keyBuf = append(s.keyBuf[:0], key...)
		key = s.keyBuf
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
	i := 0
	for more, err := s.NextElem(true); ; more, err = s.NextElem(false) {
		if !more {
			return i, err
		}
		if err := elem(i); err != nil {
			return i, err
		}
		i++
	}
}

// NextElem steps through an array without a callback: first at its
// opening bracket, then after each element, it reports whether another
// element follows, having consumed the comma before it, or the closing
// bracket; more is false on error.
func (s *Scanner) NextElem(first bool) (more bool, err error) {
	if first {
		s.Off++ // '['
		if s.Peek() == ']' {
			s.Off++
			return false, nil
		}
		return true, nil
	}
	switch s.Peek() {
	case ',':
		s.Off++
		return true, nil
	case ']':
		s.Off++
		return false, nil
	}
	return false, s.SyntaxErr("after array element")
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
	raw, _, err := s.str()
	if err == nil {
		*dst = unquote(s.token(raw), raw)
	}
	return err
}

// Unquoted scans a string from its opening quote and returns what it
// stands for, the string String would decode: its raw contents when they
// are plain, valid until the next call, else a copy.
func (s *Scanner) Unquoted() ([]byte, error) {
	raw, plain, err := s.str()
	if err != nil || plain {
		return raw, err
	}
	return []byte(unquote(s.token(raw), raw)), nil
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
	// One pass for the common case: at most 18 digits, no leading zero,
	// and a byte after them in the window that is no fraction or exponent.
	c := s.Peek()
	data, i := s.Data, s.Off
	if c == '-' {
		i++
	}
	var u uint64
	j := i
	for ; j < len(data) && j-i < 19 && data[j]-'0' <= 9; j++ {
		u = u*10 + uint64(data[j]-'0')
	}
	if d := j - i; d > 0 && d < 19 && (d == 1 || data[i] != '0') && j < len(data) && data[j] != '.' && data[j]|0x20 != 'e' {
		s.Off = j
		if c == '-' {
			*dst = -int64(u)
		} else {
			*dst = int64(u)
		}
		return nil
	}
	return s.intSlow(dst)
}

func (s *Scanner) intSlow(dst *int64) error {
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
	return s.number()
}

// number scans a JSON number and returns its token, valid until the next
// call, and whether it has neither fraction nor exponent.
func (s *Scanner) number() (tok []byte, isInt bool, err error) {
	// Read on until the window holds every byte a number could go on
	// with, and the byte after them.
	for i := s.Off; ; {
		for i < len(s.Data) && numberByte(s.Data[i]) {
			i++
		}
		n := i - s.Off
		if i < len(s.Data) || !s.fill() {
			break
		}
		i = s.Off + n
	}
	data, start, i := s.Data, s.Off, s.Off
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
		return nil, false, s.SyntaxErr("in numeric literal")
	}
	isInt = true
	if at('.') {
		i++
		isInt = false
		if digits() == 0 {
			s.Off = i
			return nil, false, s.SyntaxErr("after decimal point in numeric literal")
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
			return nil, false, s.SyntaxErr("in exponent of numeric literal")
		}
	}
	s.Off = i
	return data[start:i], isInt, nil
}

// numberByte reports whether a JSON number can go on with c.
func numberByte(c byte) bool {
	return c-'0' <= 9 || c == '-' || c == '+' || c == '.' || c|0x20 == 'e'
}

// str scans a string from its opening quote and returns its raw contents
// (no quotes, escapes unresolved) and whether they are plain: the string
// itself, with no escape and valid UTF-8. Like encoding/json's scanner it
// accepts any byte but a control character, invalid UTF-8 included.
func (s *Scanner) str() (raw []byte, plain bool, err error) {
	data := s.Data
	escaped, high := false, byte(0)
	for i := s.Off + 1; ; i++ {
		if i >= len(data) {
			n := i - s.Off
			if !s.fill() {
				s.Off = len(s.Data)
				return nil, false, errEOF
			}
			data, i = s.Data, s.Off+n
		}
		switch c := data[i]; {
		case c == '"':
			start := s.Off + 1
			s.Off = i + 1
			if s.compact {
				s.escapeHTML(start, i)
			}
			raw = data[start:i]
			return raw, !escaped && (high < utf8.RuneSelf || utf8.Valid(raw)), nil
		case c < 0x20:
			s.Off = i
			return nil, false, s.SyntaxErr("in string literal")
		case c == '\\':
			escaped = true
			n := i - s.Off
			s.want(n + 6) // \uXXXX, the longest escape
			data, i = s.Data, s.Off+n+1
			switch {
			case i >= len(data):
			case strings.IndexByte(`"\/bfnrt`, data[i]) >= 0:
			case data[i] == 'u':
				for end := i + 4; i < end && i+1 < len(data); {
					i++
					if !isHex(data[i]) {
						s.Off = i
						return nil, false, s.SyntaxErr("in \\u hexadecimal character escape")
					}
				}
			default:
				s.Off = i
				return nil, false, s.SyntaxErr("in string escape code")
			}
		default:
			high |= c
		}
	}
}

// token returns the token, quotes included, of the string whose raw
// contents str just returned.
func (s *Scanner) token(raw []byte) []byte {
	return s.Data[s.Off-len(raw)-2 : s.Off]
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
	s.want(len(lit))
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
			if _, _, err := s.str(); err != nil {
				return err
			}
		case c == '-' || c >= '0' && c <= '9':
			if _, _, err := s.number(); err != nil {
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
