package distrib

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/results"
)

// Records appended and fsync'd come back verbatim, in order, with
// strictly increasing seqs.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	cell := results.Cell{Key: results.CellKey{Graph: "g", PEs: 2, Variant: "SB-LTS"}, Values: map[string]float64{"speedup": 1.25}}
	recs := []*walRecord{
		{Type: recBegin, Run: "r", PlanHash: "h", Start: now},
		{Type: recComplete, Lease: "L1", Worker: "w", Cells: []results.Cell{cell}},
		{Type: recComplete, Lease: "L2", Worker: "w", Failures: []results.Failure{{Label: "g/P2", Err: "boom"}}},
	}
	for _, rec := range recs {
		if err := w.append(now, rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	scan, err := readWAL(w.path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if scan.torn != "" || scan.dropped != 0 {
		t.Fatalf("clean journal scanned as torn: %+v", scan)
	}
	if len(scan.records) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(scan.records), len(recs))
	}
	for i, rec := range scan.records {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Type != recs[i].Type || rec.Lease != recs[i].Lease || rec.Worker != recs[i].Worker {
			t.Fatalf("record %d round-tripped as %+v, wrote %+v", i, rec, recs[i])
		}
	}
	if got := scan.records[1].Cells; len(got) != 1 || got[0].Key != cell.Key || got[0].Values["speedup"] != 1.25 {
		t.Fatalf("cells round-tripped as %+v, wrote %+v", got, cell)
	}
	if got := scan.records[2].Failures; len(got) != 1 || got[0].Err != "boom" {
		t.Fatalf("failures round-tripped as %+v", got)
	}
}

// readWAL of a missing file is (nil, nil): a fresh state dir, not an
// error.
func TestReadWALMissingFile(t *testing.T) {
	scan, err := readWAL(filepath.Join(t.TempDir(), walFileName))
	if scan != nil || err != nil {
		t.Fatalf("readWAL(missing) = %v, %v; want nil, nil", scan, err)
	}
}

// writeTestWAL journals n complete records and returns the file path plus
// each frame's end offset, so torn-tail tests can cut at exact record
// boundaries.
func writeTestWAL(t *testing.T, n int) (string, []int64) {
	t.Helper()
	dir := t.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	bounds := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		rec := &walRecord{Type: recComplete, Lease: fmt.Sprintf("L%d", i+1), Worker: "w"}
		if err := w.append(now, rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		fi, err := w.f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, fi.Size())
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	return w.path, bounds
}

// Every flavor of torn tail — short header, truncated payload, corrupted
// payload bytes, a zeroed header — is detected and reported, never
// silently misread, and the intact prefix before it is fully recovered.
func TestReadWALDetectsTornTails(t *testing.T) {
	path, bounds := writeTestWAL(t, 3)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := map[string]func([]byte) []byte{
		"short header": func(b []byte) []byte {
			return append(append([]byte{}, b[:bounds[1]]...), b[bounds[1]:bounds[1]+5]...)
		},
		"truncated payload": func(b []byte) []byte {
			return append(append([]byte{}, b[:bounds[1]]...), b[bounds[1]:bounds[2]-3]...)
		},
		"flipped payload byte": func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[bounds[1]+12] ^= 0xff // inside the last frame's payload: CRC must catch it
			return c
		},
		"zeroed length": func(b []byte) []byte {
			c := append([]byte{}, b...)
			binary.LittleEndian.PutUint32(c[bounds[1]:], 0)
			return c
		},
		"implausible length": func(b []byte) []byte {
			c := append([]byte{}, b...)
			binary.LittleEndian.PutUint32(c[bounds[1]:], maxRecordBytes+1)
			return c
		},
	}
	for name, fn := range mutate {
		data := fn(whole)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := readWAL(path)
		if err != nil {
			t.Fatalf("%s: readWAL errored (%v), want a torn-tail scan", name, err)
		}
		if scan.torn == "" {
			t.Fatalf("%s: tear not detected", name)
		}
		if len(scan.records) != 2 || scan.goodBytes != bounds[1] {
			t.Fatalf("%s: recovered %d records / %d good bytes, want 2 / %d (%s)",
				name, len(scan.records), scan.goodBytes, bounds[1], scan.torn)
		}
		if scan.dropped != int64(len(data))-bounds[1] {
			t.Fatalf("%s: dropped %d bytes, want %d", name, scan.dropped, int64(len(data))-bounds[1])
		}
	}
}

// A record from a different journal format version is a hard error, not
// a tear: guessing at a foreign format could misread every field.
func TestReadWALRefusesForeignVersion(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"v":99,"seq":1,"type":"begin","time":"2023-01-01T00:00:00Z","start":"2023-01-01T00:00:00Z"}`)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	path := filepath.Join(dir, walFileName)
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readWAL(path); err == nil {
		t.Fatal("foreign-version record read without error")
	}
}

// A sequence gap (records lost in the middle) truncates the scan at the
// gap rather than replaying a history with a hole in it.
func TestReadWALStopsAtSequenceGap(t *testing.T) {
	path, bounds := writeTestWAL(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the middle record: frame 3 now follows frame 1.
	cut := append(append([]byte{}, data[:bounds[0]]...), data[bounds[1]:]...)
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if scan.torn == "" || len(scan.records) != 1 {
		t.Fatalf("scan = %d records, torn %q; want 1 record and a sequence-gap tear", len(scan.records), scan.torn)
	}
}
