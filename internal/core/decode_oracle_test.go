package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/results"
)

// decodeSeeds exercise every encoding/json quirk the hand-written decoder
// must reproduce.
var decodeSeeds = []string{
	// Plain documents.
	`{"nodes":[{"kind":"source","out":8},{"kind":"compute","in":8,"out":4},{"kind":"sink","in":4}],"edges":[[0,1],[1,2]]}`,
	`{"nodes":[{"name":"a","kind":"buffer","in":2,"out":4},{"name":"b","kind":"compute","in":4,"out":1}],"edges":[[0,1]]}`,
	`{"nodes":[],"edges":[]}`,
	`{}`,
	// Case-folded keys, including non-ASCII runes that fold to ASCII
	// (U+017F long s folds to S, U+212A Kelvin sign to K).
	`{"NODES":[{"KIND":"compute","In":4,"oUT":4}],"Edges":[]}`,
	`{"nodeſ":[{"\u212aind":"compute","in":4,"out":4}]}`,
	`{"nod\u0065s":[{"kind":"compute","in":4,"out":4}]}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4,"İn":9}]}`,
	// Unknown keys are skipped but must be valid.
	`{"x":{"a":[1,2.5e3,true,false,null,"s\n"]},"nodes":[{"kind":"compute","in":4,"out":4,"meta":{}}],"edges":[]}`,
	`{"x":[1,}],"nodes":[]}`,
	`{"x":tru,"nodes":[]}`,
	`{"x":01}`,
	// Duplicate keys decode into the same field; repeated arrays reuse
	// the elements an earlier array wrote.
	`{"nodes":[{"kind":"compute","in":4,"out":4}],"nodes":[{"kind":"sink"}]}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4},{"kind":"compute","in":4,"out":4}],"nodes":[{"kind":"source"}],"nodes":[{"kind":"source","in":0},null]}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4}],"nodes":[],"nodes":[null]}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4},{"kind":"compute","in":4,"out":4}],"edges":[[0,1]],"edges":[[1]],"edges":[null]}`,
	`{"nodes":[{"kind":"compute","kind":"source","out":4,"out":null},{"kind":"sink","in":4}],"edges":[[0,1]]}`,
	// null leaves fields alone; a top-level null is the empty graph.
	`{"nodes":null,"edges":null}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4}],"nodes":null}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4},{"kind":"compute","in":4,"out":4}],"edges":[[0,1]],"edges":null}`,
	`{"nodes":[null]}`,
	`{"nodes":[{"kind":null,"in":null}]}`,
	`null`,
	`null garbage`,
	// Edges: [a] is [a,0]; extra elements are syntax-checked then dropped.
	`{"nodes":[{"kind":"source","out":4},{"kind":"sink","in":4}],"edges":[[1],[0,1]]}`,
	`{"nodes":[{"kind":"source","out":4},{"kind":"sink","in":4}],"edges":[[0,1,"x",{"y":[null]}]]}`,
	`{"nodes":[{"kind":"source","out":4},{"kind":"sink","in":4}],"edges":[[0,1,x]]}`,
	`{"nodes":[{"kind":"source","out":4},{"kind":"sink","in":4}],"edges":[[]]}`,
	// Integers reject fractions, exponents and overflow.
	`{"nodes":[{"kind":"compute","in":4.0,"out":4}]}`,
	`{"nodes":[{"kind":"compute","in":4e0,"out":4}]}`,
	`{"nodes":[{"kind":"compute","in":-0,"out":4}]}`,
	`{"nodes":[{"kind":"compute","in":9223372036854775807,"out":9223372036854775807}]}`,
	`{"nodes":[{"kind":"compute","in":9223372036854775808,"out":4}]}`,
	`{"nodes":[{"kind":"compute","in":-9223372036854775808,"out":4}]}`,
	`{"nodes":[{"kind":"compute","in":"4","out":4}]}`,
	`{"nodes":[{"kind":"source","out":4},{"kind":"sink","in":4}],"edges":[[0,1.5]]}`,
	// Bytes after the first value are ignored.
	`{"nodes":[]} {"nodes":[{"kind":"wizard"}]}`,
	`{"nodes":[]}]]]`,
	// Strings: escapes, surrogates and invalid UTF-8 become what
	// encoding/json makes of them.
	`{"nodes":[{"name":"a\"b\\c\/d\u00e9\ud83d\ude00\ud800","kind":"compute","in":4,"out":4}]}`,
	"{\"nodes\":[{\"name\":\"bad\xff\xfeutf8\",\"kind\":\"compute\",\"in\":4,\"out\":4}]}",
	"{\"nodes\":[{\"name\":\"ctl\x01\",\"kind\":\"compute\",\"in\":4,\"out\":4}]}",
	`{"nodes":[{"name":"\x","kind":"compute","in":4,"out":4}]}`,
	`{"nodes":[{"kind":"comp\u0075te","in":4,"out":4}]}`,
	// Type mismatches and broken syntax.
	`[1,2,3]`,
	`{"nodes":{}}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4}],"edges":[[0,1]],}`,
	`{`,
	``,
	`  `,
	// Duplicate edges keep their first position and their last volume.
	`{"nodes":[{"kind":"source","out":4},{"kind":"compute","in":4,"out":4},{"kind":"sink","in":4}],"edges":[[0,2],[0,1],[1,2],[0,2],[0,1]]}`,
	// A fan-out star.
	star(16, false),
}

// largeDecodeCases join the seeds in the unit test only: big inputs slow
// every fuzz mutation down.
var largeDecodeCases = []string{
	star(1000, true),
	// Nesting at and past encoding/json's depth limit in a skipped value.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4,"x":` + strings.Repeat(`{"a":`, 9997) + `1` + strings.Repeat("}", 9997) + `}]}`,
	`{"nodes":[{"kind":"compute","in":4,"out":4,"x":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat("}", 9998) + `}]}`,
}

// star is a source fanned out to k element-wise nodes; with dup every
// edge is written twice.
func star(k int, dup bool) string {
	var b strings.Builder
	b.WriteString(`{"nodes":[{"kind":"source","out":4}`)
	for i := 0; i < k; i++ {
		b.WriteString(`,{"kind":"compute","in":4,"out":4}`)
	}
	b.WriteString(`],"edges":[`)
	for i := 1; i <= k; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[0,%d]", i)
		if dup {
			fmt.Fprintf(&b, ",[0,%d]", i)
		}
	}
	b.WriteString(`]}`)
	return b.String()
}

// sameGraph fails unless a and b are the same graph: nodes (names
// included), adjacency order, volumes, topological order and fingerprint.
func sameGraph(t *testing.T, a, b *core.TaskGraph) {
	t.Helper()
	if !slices.Equal(a.Nodes, b.Nodes) {
		t.Fatalf("nodes differ:\n%+v\n%+v", a.Nodes, b.Nodes)
	}
	if a.G.Len() != b.G.Len() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("sizes differ: %d/%d nodes, %d/%d edges", a.G.Len(), b.G.Len(), a.G.NumEdges(), b.G.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < a.G.Len(); v++ {
		if !slices.Equal(a.G.Succs(v), b.G.Succs(v)) || !slices.Equal(a.G.SuccVolumes(v), b.G.SuccVolumes(v)) {
			t.Fatalf("node %d successors differ: %v %v / %v %v", v,
				a.G.Succs(v), a.G.SuccVolumes(v), b.G.Succs(v), b.G.SuccVolumes(v))
		}
		if !slices.Equal(a.G.Preds(v), b.G.Preds(v)) || !slices.Equal(a.G.PredVolumes(v), b.G.PredVolumes(v)) {
			t.Fatalf("node %d predecessors differ: %v %v / %v %v", v,
				a.G.Preds(v), a.G.PredVolumes(v), b.G.Preds(v), b.G.PredVolumes(v))
		}
	}
	if !slices.Equal(a.G.Topo(), b.G.Topo()) {
		t.Fatal("topological orders differ")
	}
	if fa, fb := results.Fingerprint(a), results.Fingerprint(b); fa != fb {
		t.Fatalf("fingerprints differ: %s %s", fa, fb)
	}
}

// tinyWindow is the window the oracle also decodes through: small enough
// that nearly every token straddles a refill or outgrows the window.
const tinyWindow = 3

// checkAgainstReference decodes in with both decoders and fails unless
// they agree on acceptance and, when accepting, on the graph. The
// hand-written decoder reads in whole, from memory, one byte per read,
// and through a tiny window, so a refill falls inside every kind of
// token; a reader that fails before the end must fail the decode, with
// its own error whenever the reference accepts in.
func checkAgainstReference(t *testing.T, in string) {
	t.Helper()
	want, refErr := core.DecodeJSONReference(strings.NewReader(in))
	check := func(how string, got *core.TaskGraph, err error) {
		t.Helper()
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree on %q (%s):\n  DecodeJSON: %v\n  reference:  %v", in, how, err, refErr)
		}
		if err == nil {
			sameGraph(t, got, want)
		}
	}
	hidden := func() io.Reader { return struct{ io.Reader }{strings.NewReader(in)} } // no Len
	got, err := core.DecodeJSON(strings.NewReader(in))
	check("whole", got, err)
	got, err = core.DecodeJSONBytes([]byte(in))
	check("in memory", got, err)
	got, err = core.DecodeJSON(iotest.OneByteReader(strings.NewReader(in)))
	check("one byte per read", got, err)
	got, err = core.DecodeJSONWindow(hidden(), tinyWindow)
	check("tiny window", got, err)
	for _, k := range []int{0, len(in) / 2, len(in) - 1} {
		if k < 0 {
			continue
		}
		_, err := core.DecodeJSONWindow(&failReader{r: hidden(), n: k}, tinyWindow)
		if err == nil || refErr == nil && !errors.Is(err, errRead) {
			t.Fatalf("%q through a reader failing after %d bytes: got %v", in, k, err)
		}
	}
}

var errRead = errors.New("read failed")

// failReader passes n bytes of r through, then fails every read.
type failReader struct {
	r io.Reader
	n int
}

func (f *failReader) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errRead
	}
	n, err := f.r.Read(p[:min(len(p), f.n)])
	f.n -= n
	return n, err
}

func TestDecodeJSONMatchesReference(t *testing.T) {
	for i, in := range append(decodeSeeds[:len(decodeSeeds):len(decodeSeeds)], largeDecodeCases...) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkAgainstReference(t, in) })
	}
}

// FuzzDecodeJSONVsReference checks the hand-written decoder against the
// encoding/json reference on arbitrary input: both accept or both reject,
// and an accepted input builds the identical graph.
func FuzzDecodeJSONVsReference(f *testing.F) {
	for _, in := range decodeSeeds {
		f.Add(in)
	}
	f.Fuzz(checkAgainstReference)
}

// TestDecodeJSONTokensLargerThanWindow: a name, and the value of an
// unknown key, longer than the window grow it and decode whole.
func TestDecodeJSONTokensLargerThanWindow(t *testing.T) {
	long := strings.Repeat("n", 5000)
	for _, in := range []string{
		`{"nodes":[{"name":"` + long + `","kind":"source","out":4},{"name":"` + long + `é\u00e9","kind":"sink","in":4}],"edges":[[0,1]]}`,
		`{"x":"` + long + `","nodes":[{"kind":"compute","in":4,"out":4,"y":"` + long + `"}]}`,
		`{"x":[` + strings.Repeat(`"`+long+`",`, 3) + `1` + strings.Repeat("0", 5000) + `],"nodes":[{"kind":"compute","in":4,"out":4}]}`,
		`{"nodes":[{"kind":"compute","in":` + strings.Repeat(" ", 5000) + `4,"out":4}]}`,
	} {
		checkAgainstReference(t, in)
		got, err := core.DecodeJSONWindow(struct{ io.Reader }{strings.NewReader(in)}, 64)
		if err != nil {
			t.Fatalf("%.40q...: %v", in, err)
		}
		if strings.HasPrefix(in, `{"nodes":[{"name"`) && got.Nodes[0].Name != long {
			t.Fatalf("name of %d bytes decoded as %d bytes", len(long), len(got.Nodes[0].Name))
		}
	}
}

// TestDecodeJSONReadsToEOF: bytes after the graph are still read, to the
// end of r, however far past the window they run.
func TestDecodeJSONReadsToEOF(t *testing.T) {
	r := strings.NewReader(`{"nodes":[{"kind":"compute","in":4,"out":4}]} ` + strings.Repeat("trailing bytes ", 10_000))
	if _, err := core.DecodeJSONWindow(iotest.HalfReader(r), 1<<10); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left unread", r.Len())
	}
}

// TestDecodeJSONStreams: decoding a 10^5-node document from a reader that
// hides its length allocates about what decoding it in memory does, not
// a buffer holding the whole document as well.
func TestDecodeJSONStreams(t *testing.T) {
	g, err := core.DecodeJSONBytes([]byte(chain(100_000, false)))
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := g.EncodeJSON(&doc); err != nil {
		t.Fatal(err)
	}
	allocated := func(decode func() (*core.TaskGraph, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := decode(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	inMemory := allocated(func() (*core.TaskGraph, error) { return core.DecodeJSONBytes(doc.Bytes()) })
	streamed := allocated(func() (*core.TaskGraph, error) {
		return core.DecodeJSON(struct{ io.Reader }{bytes.NewReader(doc.Bytes())})
	})
	t.Logf("%d-byte document: %d bytes allocated streamed, %d in memory", doc.Len(), streamed, inMemory)
	if float64(streamed) > 1.3*float64(inMemory) {
		t.Errorf("streamed decode allocated %d bytes, over 1.3x the in-memory decode's %d", streamed, inMemory)
	}
}

// TestDecodeJSONAdversarialScale decodes a 10^5-fan-out star and 10^5
// duplicate edges: no decode step may scan a node's adjacency once per
// edge. The bound is a ratio against a same-size chain, where every node
// has degree one, decoded in the same test: a per-edge adjacency scan makes
// the star ~10^4 times the chain's work, while machine load slows both.
func TestDecodeJSONAdversarialScale(t *testing.T) {
	const k, maxRatio = 100_000, 5
	for _, dup := range []bool{false, true} {
		in, control := star(k, dup), chain(k, dup)
		var starTime, chainTime time.Duration
		for rep := 0; rep < 2; rep++ {
			d, tg := timedDecode(t, in)
			if tg.G.NumEdges() != k || tg.G.OutDegree(0) != k {
				t.Fatalf("dup=%v: %d edges, out-degree %d, want %d", dup, tg.G.NumEdges(), tg.G.OutDegree(0), k)
			}
			starTime = minPositive(starTime, d)
			d, tg = timedDecode(t, control)
			if tg.G.NumEdges() != k || tg.G.OutDegree(0) != 1 {
				t.Fatalf("dup=%v control: %d edges, out-degree %d", dup, tg.G.NumEdges(), tg.G.OutDegree(0))
			}
			chainTime = minPositive(chainTime, d)
		}
		t.Logf("dup=%v: star %v, chain %v", dup, starTime, chainTime)
		if starTime > maxRatio*chainTime {
			t.Errorf("dup=%v: star decode %v is over %dx the degree-1 chain's %v", dup, starTime, maxRatio, chainTime)
		}
	}
}

// chain is star's degree-1 control: the same node count, node records and
// edge count (duplicated when dup), as a path 0 -> 1 -> ... -> k.
func chain(k int, dup bool) string {
	var b strings.Builder
	b.WriteString(`{"nodes":[{"kind":"source","out":4}`)
	for i := 0; i < k; i++ {
		b.WriteString(`,{"kind":"compute","in":4,"out":4}`)
	}
	b.WriteString(`],"edges":[`)
	for i := 1; i <= k; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i-1, i)
		if dup {
			fmt.Fprintf(&b, ",[%d,%d]", i-1, i)
		}
	}
	b.WriteString(`]}`)
	return b.String()
}

func timedDecode(t *testing.T, in string) (time.Duration, *core.TaskGraph) {
	t.Helper()
	start := time.Now()
	tg, err := core.DecodeJSON(strings.NewReader(in))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, tg
}

func minPositive(a, b time.Duration) time.Duration {
	if a == 0 || b < a {
		return b
	}
	return a
}

// encodeSeeds add names that need escaping, and successors added out of
// (from, to) order, to the decoder seeds.
var encodeSeeds = append(decodeSeeds[:len(decodeSeeds):len(decodeSeeds)],
	`{"nodes":[{"name":"q\"b\\s\/<a>&amp;","kind":"compute","in":4,"out":4}]}`,
	`{"nodes":[{"name":"a&b","kind":"source","out":4},{"name":"a<b","kind":"compute","in":4,"out":4},{"name":"a>b","kind":"compute","in":4,"out":4},{"name":"a\"b","kind":"compute","in":4,"out":4},{"name":"a\\b","kind":"sink","in":4}],"edges":[[0,2],[0,1],[1,4],[2,3],[3,4]]}`,
	`{"nodes":[{"name":"tab\there","kind":"compute","in":4,"out":4},{"name":"del\u007f","kind":"compute","in":4,"out":4}]}`,
	`{"nodes":[{"name":"\u0000\u001f\u007f\t\n\r\b\f","kind":"compute","in":4,"out":4}]}`,
	`{"nodes":[{"name":"\u2028\u2029\u00e9\ud83d\ude00\ufffd","kind":"compute","in":4,"out":4}]}`,
	"{\"nodes\":[{\"name\":\"\xc3\x28\xe2\x80\xa8\xed\xa0\x80\",\"kind\":\"compute\",\"in\":4,\"out\":4}]}",
	`{"nodes":[{"name":" ~plain ASCII~ ","kind":"source","out":4},{"name":"","kind":"sink","in":4}],"edges":[[0,1]]}`,
	`{"nodes":[{"kind":"source","out":4},{"kind":"compute","in":4,"out":4},{"kind":"compute","in":4,"out":4},{"kind":"sink","in":4}],"edges":[[0,3],[0,2],[0,1],[2,3],[1,3]]}`,
	`{"nodes":[{"kind":"compute","in":-9223372036854775808,"out":9223372036854775807}]}`,
)

// checkEncodeAgainstReference fails unless, for a document DecodeJSON
// accepts, EncodeJSON writes the reference encoder's bytes and decoding
// them gives back the same graph: the same nodes, the same edge set with
// the same volumes, and the same fingerprint.
func checkEncodeAgainstReference(t *testing.T, in string) {
	t.Helper()
	g, err := core.DecodeJSON(strings.NewReader(in))
	if err != nil {
		return
	}
	var got, want bytes.Buffer
	if err := g.EncodeJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := g.EncodeJSONReference(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encoders disagree on %q:\n  EncodeJSON: %q\n  reference:  %q", in, got.Bytes(), want.Bytes())
	}
	again, err := core.DecodeJSON(&got)
	if err != nil {
		t.Fatalf("re-decoding %q: %v", want.Bytes(), err)
	}
	if !slices.Equal(g.Nodes, again.Nodes) || !slices.Equal(g.G.Edges(), again.G.Edges()) {
		t.Fatalf("round trip of %q changed the graph", in)
	}
	if results.Fingerprint(g) != results.Fingerprint(again) {
		t.Fatalf("round trip of %q changed the fingerprint", in)
	}
}

func TestEncodeJSONMatchesReference(t *testing.T) {
	long := `{"nodes":[{"name":"` + strings.Repeat("n", 70_000) + `","kind":"compute","in":4,"out":4},` +
		`{"name":"` + strings.Repeat("é", 40_000) + `","kind":"compute","in":4,"out":4}]}`
	for i, in := range append(encodeSeeds, append(largeDecodeCases, long)...) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkEncodeAgainstReference(t, in) })
	}
}

// FuzzEncodeJSONVsReference checks the hand-written encoder against the
// encoding/json reference on every graph the decoder accepts: identical
// bytes, and a round trip back to the same graph.
func FuzzEncodeJSONVsReference(f *testing.F) {
	for _, in := range encodeSeeds {
		f.Add(in)
	}
	f.Fuzz(checkEncodeAgainstReference)
}

// TestEncodeJSONGrowsBufferOnce: a bytes.Buffer destination ends no larger
// than one write of the whole document leaves it, as the reference
// encoder's single write does, so a caller that keeps the bytes keeps no
// slack from doubling growth.
func TestEncodeJSONGrowsBufferOnce(t *testing.T) {
	g, err := core.DecodeJSON(strings.NewReader(chain(10_000, false)))
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := g.EncodeJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := g.EncodeJSONReference(&want); err != nil {
		t.Fatal(err)
	}
	if cap(got.Bytes()) > cap(want.Bytes()) {
		t.Errorf("%d-byte document left a %d-byte buffer, reference %d", got.Len(), cap(got.Bytes()), cap(want.Bytes()))
	}
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestEncodeJSONWriteError: a write error reaches the caller, whether the
// first write fails or a later one.
func TestEncodeJSONWriteError(t *testing.T) {
	g, err := core.DecodeJSON(strings.NewReader(chain(10_000, false)))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 40 << 10} {
		if err := g.EncodeJSON(&failWriter{n: n}); err == nil || err.Error() != "disk full" {
			t.Errorf("writer failing after %d bytes: got %v", n, err)
		}
	}
}
