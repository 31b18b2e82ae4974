package distrib

// journal.go is the coordinator's write-ahead persistence layer: an
// append-only journal of the run's admission and of every accepted batch
// completion. Each record is framed with a length and a CRC32 and fsync'd
// before the completion it describes is applied in memory or acknowledged
// to an agent, so a coordinator killed at any instant can replay every
// result it acknowledged (recovery.go). Leases are not journaled: jobs
// are deterministic and completions first-write-wins, so a lease is soft
// state a crash may forget — recovery simply makes every unresolved job
// pending again. A torn tail — the half-written frame a crash mid-append
// leaves behind — is detected by the framing and dropped, never misread;
// dropping it is safe because an unacknowledged completion is one the
// agent will simply retry or another agent recompute.
//
// A `-state` directory holds one file, wal.log: framed walRecords with
// strictly increasing seqs, opened by the run's begin record at seq 1 and
// followed by one complete record per accepted upload. It is never
// truncated behind a checkpoint: every complete record carries its
// batch's cells verbatim, so replay costs about what loading a full-state
// copy would.
//
// Frame format: uint32 LE payload length, uint32 LE CRC32 (IEEE) of the
// payload, then the payload — one JSON-encoded walRecord.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/distrib/faultpoint"
	"repro/internal/results"
)

const (
	// walVersion 2 journals only begin and complete records; a version 1
	// journal also holds lease grants and expiries and is refused.
	walVersion  = 2
	walFileName = "wal.log"
	// maxRecordBytes bounds a frame's declared payload length; anything
	// larger is garbage (a torn or overwritten header), not a record.
	maxRecordBytes = 256 << 20
)

// Record types. A begin record opens the journal at seq 1.
const (
	recBegin    = "begin"
	recComplete = "complete"
)

// walRecord is one journaled record. One struct covers both record
// types; unused fields stay empty on the wire.
type walRecord struct {
	V    int       `json:"v"`
	Seq  uint64    `json:"seq"`
	Type string    `json:"type"`
	Time time.Time `json:"time"`

	// begin: the run's identity, enough to refuse a state dir that
	// belongs to a different run and to resume this one.
	Run      string        `json:"run,omitempty"`
	Meta     *results.Meta `json:"meta,omitempty"`
	PlanHash string        `json:"plan_hash,omitempty"`
	Start    time.Time     `json:"start"`

	// complete: the lease the upload named, its worker, and the batch
	// verbatim (after validation). Replay re-runs the same
	// first-write-wins dedup the live path ran.
	Lease    string            `json:"lease,omitempty"`
	Worker   string            `json:"worker,omitempty"`
	Cells    []results.Cell    `json:"cells,omitempty"`
	Failures []results.Failure `json:"failures,omitempty"`
}

// wal is an open journal file. The coordinator's mutex serializes all
// access.
type wal struct {
	path string
	f    *os.File
	seq  uint64
	// broken latches the first write- or sync-stage failure. Once bytes
	// may have landed without their fsync, appending more would place
	// valid frames after a possibly torn region and make the tear look
	// like the end of the journal — so every later append is refused and
	// the coordinator serves 503 until restarted.
	broken error
}

// openWAL opens (creating if need be) the journal for appending after
// seq, and fsyncs the directory so the file's entry survives a power
// loss along with the records fsync'd into it.
func openWAL(dir string, seq uint64) (*wal, error) {
	path := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("distrib: opening journal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("distrib: opening journal: %w", err)
	}
	return &wal{path: path, f: f, seq: seq}, nil
}

func encodeFrame(rec *walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("distrib: encoding journal record: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// append journals the record — assigning its seq and stamping now — and
// fsyncs before returning. An error before any byte is written (the
// distrib.wal.append faultpoint, an encode failure) leaves the journal
// usable and the request retryable; an error at or after the write
// latches broken.
func (w *wal) append(now time.Time, rec *walRecord) error {
	if w.broken != nil {
		return fmt.Errorf("journal unusable after earlier write failure: %w", w.broken)
	}
	if err := faultpoint.Hit("distrib.wal.append"); err != nil {
		return err
	}
	seq := w.seq + 1
	rec.V = walVersion
	rec.Seq = seq
	rec.Time = now
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		w.broken = err
		return fmt.Errorf("journal write: %w", err)
	}
	if err := faultpoint.Hit("distrib.wal.sync"); err != nil {
		w.broken = err
		return fmt.Errorf("journal sync: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return fmt.Errorf("journal sync: %w", err)
	}
	w.seq = seq
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walScan is the result of reading a journal file from disk.
type walScan struct {
	records   []*walRecord
	goodBytes int64  // prefix length holding intact records
	dropped   int64  // bytes past goodBytes (the torn tail)
	torn      string // why the tail was dropped; empty if the file was clean
}

// readWAL reads every intact record from the journal. It stops — and
// reports why — at the first frame that cannot be a record written by
// this code: a short header, an implausible length, a CRC mismatch,
// unparseable JSON, or a sequence gap. Everything before that point is
// trusted (each frame's CRC vouches for it); everything after is the
// torn tail a crash mid-append leaves, and recovery truncates it. A
// record that parses but carries a foreign version is a hard error, not
// a tear: the file belongs to a different build and must not be guessed
// at.
func readWAL(path string) (*walScan, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("distrib: reading journal: %w", err)
	}
	scan := &walScan{}
	var off int64
	var prevSeq uint64
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < 8 {
			scan.torn = "truncated frame header"
			break
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		if length == 0 || length > maxRecordBytes {
			scan.torn = fmt.Sprintf("implausible record length %d", length)
			break
		}
		if len(rest) < int(8+length) {
			scan.torn = "truncated record payload"
			break
		}
		payload := rest[8 : 8+length]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			scan.torn = "record checksum mismatch"
			break
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			scan.torn = fmt.Sprintf("unparseable record: %v", err)
			break
		}
		if rec.V != walVersion {
			return nil, fmt.Errorf("distrib: journal %s speaks format version %d, this build speaks %d: finish that run with the build that started it, or start a fresh -state dir (a shared -cache makes the rerun warm)", path, rec.V, walVersion)
		}
		if rec.Seq == 0 || (prevSeq != 0 && rec.Seq != prevSeq+1) {
			scan.torn = fmt.Sprintf("sequence gap: record %d after %d", rec.Seq, prevSeq)
			break
		}
		prevSeq = rec.Seq
		scan.records = append(scan.records, &rec)
		off += int64(8 + length)
	}
	scan.goodBytes = off
	scan.dropped = int64(len(data)) - off
	return scan, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
