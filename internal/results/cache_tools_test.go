package results

import (
	"os"
	"testing"
	"time"
)

func fillCache(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cell := Cell{
			Key:    CellKey{Graph: "fp", PEs: i + 1, Variant: "v"},
			Values: map[string]float64{"x": float64(i)},
		}
		if err := c.Put(cell); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheStats: entry count and byte totals reflect what Put stored; the
// last-run counter file is metadata, not an entry.
func TestCacheStats(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := cache.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 || st.Bytes != 0 || st.LastRun != nil {
		t.Fatalf("fresh cache stats %+v", st)
	}

	fillCache(t, cache, 5)
	if err := cache.RecordRun(RunCounters{Hits: 3, Misses: 2, When: time.Now()}); err != nil {
		t.Fatal(err)
	}
	st, err = cache.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 5 {
		t.Errorf("entries %d, want 5 (last_run.json must not count)", st.Entries)
	}
	if st.Bytes <= 0 {
		t.Errorf("bytes %d, want > 0", st.Bytes)
	}
	if st.LastRun == nil || st.LastRun.Hits != 3 || st.LastRun.Misses != 2 {
		t.Errorf("last run %+v, want 3 hits / 2 misses", st.LastRun)
	}
}

// TestCacheGC: entries older than the age are removed (and report freed
// bytes), fresh entries and the counter file survive, and collected keys
// read as misses.
func TestCacheGC(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, cache, 4)
	if err := cache.RecordRun(RunCounters{Hits: 1, When: time.Now()}); err != nil {
		t.Fatal(err)
	}

	// Age two entries artificially.
	old := time.Now().Add(-48 * time.Hour)
	for _, pes := range []int{1, 2} {
		p := cache.path(CellKey{Graph: "fp", PEs: pes, Variant: "v"})
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	removed, freed, err := cache.GC(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || freed <= 0 {
		t.Fatalf("GC removed %d entries (%d bytes), want 2 (> 0)", removed, freed)
	}
	st, err := cache.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 {
		t.Errorf("%d entries after GC, want 2", st.Entries)
	}
	if st.LastRun == nil {
		t.Error("GC removed the last-run counters")
	}
	if _, ok := cache.Get(CellKey{Graph: "fp", PEs: 1, Variant: "v"}); ok {
		t.Error("collected entry still hits")
	}
	if _, ok := cache.Get(CellKey{Graph: "fp", PEs: 3, Variant: "v"}); !ok {
		t.Error("fresh entry was collected")
	}
}
