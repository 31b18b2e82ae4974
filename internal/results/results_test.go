package results

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

func testGraph(t *testing.T, w int64) *core.TaskGraph {
	t.Helper()
	tg := core.New()
	a := tg.AddElementWise("a", w)
	b := tg.AddElementWise("b", w)
	tg.MustConnect(a, b)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestCellKeyString: the canonical form distinguishes every field, so it
// can serve as the cache's hash input.
func TestCellKeyString(t *testing.T) {
	keys := []CellKey{
		{Graph: "g", PEs: 4, Variant: "SB-LTS"},
		{Graph: "g", PEs: 4, Variant: "SB-LTS", Simulate: true},
		{Graph: "g", PEs: 8, Variant: "SB-LTS"},
		{Graph: "g", PEs: 4, Variant: "SB-RLX"},
		{Graph: "h", PEs: 4, Variant: "SB-LTS"},
	}
	seen := map[string]bool{}
	for _, k := range keys {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate canonical form %q", s)
		}
		seen[s] = true
	}
	want := "g|P4|SB-LTS|sim1"
	if got := keys[1].String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestSetRejectsOverlap: adding the same key twice must fail — inside a
// merge that means two shards overlap.
func TestSetRejectsOverlap(t *testing.T) {
	s := NewSet()
	c := Cell{Key: CellKey{Graph: "g", PEs: 2, Variant: "v"}, Values: map[string]float64{"x": 1}}
	if err := s.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(c); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if got, ok := s.Get(c.Key); !ok || got.Values["x"] != 1 {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	if s.Len() != 1 || len(s.Cells()) != 1 {
		t.Errorf("set holds %d cells, want 1", s.Len())
	}
}

// TestFingerprint: identical contents fingerprint identically no matter
// how the graph was constructed; different contents differ.
func TestFingerprint(t *testing.T) {
	a, b := testGraph(t, 16), testGraph(t, 16)
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("identical graphs fingerprint differently")
	}
	c := testGraph(t, 32)
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("different volumes share a fingerprint")
	}
	if len(Fingerprint(a)) != 32 {
		t.Errorf("fingerprint %q is not 32 hex chars", Fingerprint(a))
	}
}

// TestFingerprintAllocsFlat: fingerprinting streams the canonical JSON
// into the hash through one fixed buffer, so it allocates the same few
// times at 10^3 nodes as at 10^4.
func TestFingerprintAllocsFlat(t *testing.T) {
	var counts []float64
	for _, target := range []int{1_000, 10_000} {
		tg := synth.Gaussian(synth.GaussianFor(target), rand.New(rand.NewSource(1)), synth.DefaultConfig())
		counts = append(counts, testing.AllocsPerRun(5, func() { Fingerprint(tg) }))
	}
	if counts[0] != counts[1] || counts[0] > 8 {
		t.Errorf("Fingerprint allocates %v times at 10^3 and 10^4 nodes, want the same count, at most 8", counts)
	}
}

// TestCacheRoundTrip: floats survive the JSON round trip exactly — the
// property the byte-identical merge guarantee rests on.
func TestCacheRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Graph: "fp", PEs: 64, Variant: "SB-RLX", Simulate: true}
	vals := map[string]float64{
		"third": 1.0 / 3.0,
		"pi":    math.Pi,
		"tiny":  5.877471754111438e-39,
		"zero":  0,
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := cache.Put(Cell{Key: key, Label: "l", Values: vals}); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	for name, want := range vals {
		if got.Values[name] != want {
			t.Errorf("%s = %v, want exactly %v", name, got.Values[name], want)
		}
	}
	other := key
	other.Simulate = false
	if _, ok := cache.Get(other); ok {
		t.Error("hit for a different simulate flag")
	}
}

// TestCacheCorruptEntryIsMiss: truncated or foreign entries report a miss
// so the run recomputes and overwrites; they must never error or serve
// wrong values.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Graph: "fp", PEs: 4, Variant: "v"}
	if err := cache.Put(Cell{Key: key, Values: map[string]float64{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(key), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Error("corrupt entry served as a hit")
	}
	// An entry whose stored key disagrees with its address is also a miss.
	foreign := Cell{Key: CellKey{Graph: "other", PEs: 4, Variant: "v"}, Values: map[string]float64{"x": 2}}
	if err := cache.Put(foreign); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cache.path(foreign.Key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(cache.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Error("entry with mismatched key served as a hit")
	}
}

// TestCacheVersioned: entries live under a schema-versioned directory, so
// a future schema bump cannot misread them.
func TestCacheVersioned(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Dir(), filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion)); got != want {
		t.Errorf("cache dir %q, want %q", got, want)
	}
}

// TestBlobRoundTrip: the blob namespace stores arbitrary JSON payloads
// under the same content keys as cells, verbatim, without colliding with
// cell entries for the same key.
func TestBlobRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Graph: "fp", PEs: 8, Variant: "lts", Simulate: true}
	payload := []byte(`{"makespan":123.25,"pe":[0,1,2]}`)
	if _, ok := cache.GetBlob("report", key); ok {
		t.Fatal("hit on an empty blob namespace")
	}
	if err := cache.PutBlob("report", key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.GetBlob("report", key)
	if !ok {
		t.Fatal("miss after PutBlob")
	}
	if string(got) != string(payload) {
		t.Errorf("payload %s, want %s", got, payload)
	}
	// Same key, different namespace or cell store: no bleed-through.
	if _, ok := cache.GetBlob("other", key); ok {
		t.Error("hit in a different namespace")
	}
	if _, ok := cache.Get(key); ok {
		t.Error("blob entry served as a cell")
	}
	if err := cache.Put(Cell{Key: key, Values: map[string]float64{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := cache.GetBlob("report", key); string(got) != string(payload) {
		t.Error("cell Put disturbed the blob entry")
	}
	// Non-JSON payloads are rejected at write time.
	if err := cache.PutBlob("report", key, []byte("not json")); err == nil {
		t.Error("PutBlob accepted an invalid JSON payload")
	}
}

// TestBlobCorruptEntryIsMiss: unreadable, truncated, or foreign blob
// entries are misses, never errors or wrong payloads.
func TestBlobCorruptEntryIsMiss(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Graph: "fp", PEs: 4, Variant: "v"}
	if err := cache.PutBlob("report", key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.blobPath("report", key), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetBlob("report", key); ok {
		t.Error("corrupt blob served as a hit")
	}
	// An entry whose stored envelope disagrees with its address is a miss.
	other := CellKey{Graph: "other", PEs: 4, Variant: "v"}
	if err := cache.PutBlob("report", other, []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cache.blobPath("report", other))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.blobPath("report", key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetBlob("report", key); ok {
		t.Error("blob with mismatched key served as a hit")
	}
}
