// Package wal is a checksummed, length-prefixed, group-committed
// write-ahead log: the durability layer under the delta-absorbing write
// paths (mmdb AppendRows, sharded Insert).  A batch is appended to the
// log — and fsynced per the configured policy — before the in-memory
// structures absorb it, so a crash between snapshots loses nothing the
// policy promised to keep.
//
// # File format
//
// A log is one file that is reused, never replaced:
//
//	header:  magic u32 | version u32 | baseSeq u64 | crc u32     (20 bytes)
//	record:  len u32 | crc u32 | seq u64 | payload (len bytes)
//
// Every integer is little-endian.  A record's crc (CRC-32C) covers seq
// and payload; the header crc covers the fields before it.  Sequence
// numbers are assigned by the log, start at baseSeq, and increase by one
// per record; they never restart.  A checkpoint rewrites the header in
// place with the next seq as its baseSeq, and the records after it
// overwrite the previous epoch's from offset 20.  The file therefore
// stays at its largest size, and past the live records it holds stale
// ones, every one with a seq below baseSeq, so the sequence rule below
// cuts them: no checkpoint frees a disk block.  A snapshot names the
// exact prefix of the log it absorbed, and recovery replays only records
// after it.
//
// # Recovery
//
// Open replays the log front to back.  The first record that fails its
// checksum, runs past the end of the file, or breaks the sequence marks
// the end: everything before it is returned, and what follows is
// truncated off (and the truncation synced) so the log is clean for new
// appends.  The cut matters after a crash: writes can persist out of
// order, so an intact record of the current epoch can sit past a torn
// one, and a new record of the same length written over the torn one
// would bring it back.  A torn header (only a checkpoint rewrites one,
// and only over synced records) takes its baseSeq from the first record
// after it.  This is the write-ahead discipline of ARIES-style logging
// specialised to redo-only batches: no undo is ever needed because
// nothing is acknowledged out of order and replay is cut at the first
// hole.
//
// The format carries no per-epoch salt, so a stale record is told from a
// live one only by its seq and checksum: a payload crafted to hold a
// whole record frame, landing where a later epoch's live records end,
// could be read as the next record.
//
// # Durability policies
//
//   - ModeAlways: Append returns only after the record is fsynced — an
//     acknowledged batch is durable, full stop.
//   - ModeGroup: Append returns after the buffered write; the log fsyncs
//     when Policy.Bytes of unsynced records accumulate and/or every
//     Policy.Interval from a background flusher (group commit).  A crash
//     loses at most the unsynced suffix of acknowledged batches — never
//     a prefix, never a torn batch.
//   - ModeNone: the log fsyncs only on Checkpoint, Sync and Close.
//     After a crash the log still recovers to a clean acknowledged
//     prefix (whatever the OS happened to flush), but promises nothing.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"cssidx/internal/failfs"
	"cssidx/internal/snapio"
	"cssidx/internal/telemetry"
)

// Encoding constants.
const (
	logMagic   = 0x43535357 // "CSSW"
	logVersion = 1

	headerSize = 20
	recHdrSize = 16

	// maxRecord caps a single record's payload: replay rejects larger
	// length prefixes as corruption even when the file claims to be big
	// enough, and Append refuses to write them.
	maxRecord = 1 << 30
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrTooLarge is returned by Append for payloads over maxRecord bytes.
var ErrTooLarge = errors.New("wal: record too large")

// Mode selects when an appended record is fsynced.
type Mode int

const (
	// ModeGroup acknowledges after the buffered write and group-commits
	// on the policy's byte/time bounds (the zero value: the sane
	// default for sustained ingest).
	ModeGroup Mode = iota
	// ModeAlways fsyncs every Append before acknowledging.
	ModeAlways
	// ModeNone never fsyncs on Append; only Checkpoint/Sync/Close do.
	ModeNone
)

func (m Mode) String() string {
	switch m {
	case ModeAlways:
		return "always"
	case ModeNone:
		return "none"
	default:
		return "group"
	}
}

// Policy is a Mode plus the group-commit bounds.
type Policy struct {
	Mode Mode
	// Interval, for ModeGroup, runs a background flusher syncing every
	// Interval while unsynced records exist.  0 disables the timer
	// (deterministic: syncs happen only on the Bytes bound or explicit
	// Sync/Checkpoint/Close — what the crash harness uses).
	Interval time.Duration
	// Bytes, for ModeGroup, syncs inline once at least this many
	// unsynced record bytes accumulate.  0 disables the bound.
	Bytes int
}

// Always returns the every-append-durable policy.
func Always() Policy { return Policy{Mode: ModeAlways} }

// None returns the checkpoint-only-durability policy.
func None() Policy { return Policy{Mode: ModeNone} }

// GroupCommit returns a group-commit policy syncing at least every
// interval and every 1 MiB of records, whichever comes first.
func GroupCommit(interval time.Duration) Policy {
	return Policy{Mode: ModeGroup, Interval: interval, Bytes: 1 << 20}
}

// GroupBytes returns a timerless group-commit policy syncing once n
// unsynced bytes accumulate: fully deterministic, for tests and
// harnesses that enumerate every filesystem operation.
func GroupBytes(n int) Policy { return Policy{Mode: ModeGroup, Bytes: n} }

// Record is one replayed log entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Log is an open write-ahead log.  All methods are safe for concurrent
// use; concurrent Appends are serialized and, under ModeGroup, share
// fsyncs.
type Log struct {
	fsys failfs.FS
	path string
	pol  Policy

	mu           sync.Mutex
	f            failfs.File
	size         int64  // live end: header plus live records, where the next Append writes
	nextSeq      uint64 // seq the next Append takes
	synced       uint64 // last seq known durable (0 = none)
	unsynced     int    // record bytes written since the last sync
	unsyncedRecs int    // records written since the last sync
	err          error  // sticky: a failed sync/append poisons the log
	closed       bool

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens (creating if missing) the log at path and replays it,
// returning every intact record from the header's base sequence on.  A
// torn or stale tail — short record, checksum mismatch, sequence break —
// is truncated off and the truncation synced, so the returned records are
// exactly the durable, contiguous acknowledged prefix and the log is
// clean for new appends.
//
// A missing, empty, or torn-before-first-sync file (its header never
// became durable, so no record can have been) is initialised fresh; a
// torn header followed by an intact record takes its base from that
// record.  A file whose header is intact but names a different magic or
// version is refused — it is some other file, not a torn log.
func Open(fsys failfs.FS, path string, pol Policy) (*Log, []Record, error) {
	if fsys == nil {
		fsys = failfs.OS
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{fsys: fsys, path: path, pol: pol, f: f}
	recs, err := l.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if pol.Mode == ModeGroup && pol.Interval > 0 {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop(pol.Interval)
	}
	return l, recs, nil
}

// replay validates the header, scans the records, truncates the torn
// tail, and leaves the log positioned for appending.
func (l *Log) replay() ([]Record, error) {
	size, err := l.f.Size()
	if err != nil {
		return nil, fmt.Errorf("wal: sizing %s: %w", l.path, err)
	}

	if size < headerSize {
		return nil, l.reset(1)
	}
	r := snapio.NewReader(l.f)
	magic, version := r.U32(), r.U32()
	baseSeq := r.U64()
	r.Trailer()
	// torn: the header fails its checksum, so the base comes from the
	// first intact record, if there is one.
	torn := false
	switch err := r.Err(); {
	case errors.Is(err, snapio.ErrChecksum):
		torn = true
	case err != nil:
		return nil, fmt.Errorf("wal: reading header: %w", err)
	case magic != logMagic:
		return nil, fmt.Errorf("wal: %s is not a write-ahead log (magic %#x)", l.path, magic)
	case version != logVersion:
		return nil, fmt.Errorf("wal: unsupported log version %d", version)
	}
	if baseSeq == 0 {
		baseSeq = 1
	}
	l.nextSeq = baseSeq

	// Scan records.  Allocation is capped by construction: a payload is
	// only read when its length prefix fits inside the file.
	var (
		recs []Record
		off  = int64(headerSize)
		rh   [recHdrSize]byte
	)
	for off+recHdrSize <= size {
		if _, err := io.ReadFull(l.f, rh[:]); err != nil {
			break // short read inside a claimed-full region: torn
		}
		n := int64(binary.LittleEndian.Uint32(rh[0:4]))
		crc := binary.LittleEndian.Uint32(rh[4:8])
		seq := binary.LittleEndian.Uint64(rh[8:16])
		if n > maxRecord || off+recHdrSize+n > size {
			break // length runs past the file: torn
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(l.f, payload); err != nil {
			break
		}
		if snapio.CRC(snapio.CRC(0, rh[8:16]), payload) != crc {
			break // checksum mismatch: torn or corrupt
		}
		if torn && len(recs) == 0 {
			l.nextSeq = seq
		}
		if seq != l.nextSeq {
			break // sequence break: a stale record or a hole
		}
		recs = append(recs, Record{Seq: seq, Payload: payload})
		l.nextSeq = seq + 1
		off += recHdrSize + n
	}
	if torn && len(recs) == 0 {
		if magic != logMagic {
			return nil, fmt.Errorf("wal: %s is not a write-ahead log (magic %#x)", l.path, magic)
		}
		// A torn header over no intact record never became durable:
		// records are synced before any header is rewritten, so
		// nothing durable is lost by starting over.  (The caller
		// re-bases the sequence past its snapshot via Advance.)
		return nil, l.reset(1)
	}
	if off < size {
		if err := l.f.Truncate(off); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: syncing truncation: %w", err)
		}
	}
	l.f.SeekWrite(off)
	l.size = off
	l.synced = l.nextSeq - 1 // everything replayed (or checkpointed) is on disk
	return recs, nil
}

// writeHeader writes the log header, one snapio frame: magic, version and
// the base sequence under their CRC-32C, in a single write.
func writeHeader(w io.Writer, baseSeq uint64) error {
	sw := snapio.NewWriter(w, logMagic, logVersion)
	sw.U64(baseSeq)
	_, err := sw.Close()
	return err
}

// reset truncates the file and writes a fresh durable header carrying
// baseSeq: a recovery step, never a checkpoint's.  l.mu is held (or the
// log is not yet shared).
func (l *Log) reset(baseSeq uint64) error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: resetting log: %w", err)
	}
	l.f.SeekWrite(0)
	if err := writeHeader(l.f, baseSeq); err != nil {
		return fmt.Errorf("wal: writing header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing header: %w", err)
	}
	if err := l.fsys.SyncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	l.size = headerSize
	l.nextSeq = baseSeq
	l.synced = baseSeq - 1
	l.unsynced = 0
	l.unsyncedRecs = 0
	return nil
}

// Append logs one batch payload and returns its sequence number.  When
// it returns nil the record is on disk per the policy: fsynced under
// ModeAlways, buffered (durable within the group-commit bounds) under
// ModeGroup, buffered until the next checkpoint under ModeNone.  A
// failed write or sync poisons the log — later Appends return the same
// error — because once durability is unknown nothing further may be
// acknowledged.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecord {
		return 0, ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	seq := l.nextSeq
	buf := make([]byte, recHdrSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	copy(buf[recHdrSize:], payload)
	binary.LittleEndian.PutUint32(buf[4:8], snapio.CRC(snapio.CRC(0, buf[8:16]), payload))

	if _, err := l.f.Write(buf); err != nil {
		// The write may have partially landed past the live end, where
		// replay stops anyway; the next record overwrites it.
		l.f.SeekWrite(l.size)
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	l.size += int64(len(buf))
	l.unsynced += len(buf)
	l.unsyncedRecs++
	l.nextSeq = seq + 1
	ctrAppends.Inc()
	ctrBytes.Add(uint64(len(buf)))

	switch l.pol.Mode {
	case ModeAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case ModeGroup:
		if l.pol.Bytes > 0 && l.unsynced >= l.pol.Bytes {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// syncLocked fsyncs the file and advances the durable watermark; a
// failure poisons the log.  l.mu held.
func (l *Log) syncLocked() error {
	if l.unsynced == 0 {
		return nil
	}
	start := telemetry.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync failed: %w", err)
		return l.err
	}
	histFsyncNs.Since(start)
	histGroupRecs.Observe(uint64(l.unsyncedRecs))
	l.unsynced = 0
	l.unsyncedRecs = 0
	l.synced = l.nextSeq - 1
	return nil
}

// Sync forces every appended record durable now, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

// SyncedSeq reports the highest sequence number known durable: records
// up to it survive a crash; records after it are acknowledged but still
// riding on the policy's group-commit window.  After a Checkpoint every
// logged record is the snapshot's responsibility, so SyncedSeq reports
// the last sequence the checkpoint covered.
func (l *Log) SyncedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Advance re-bases the log so its next sequence number is strictly
// greater than seq: the recovery step that reconciles the log with a
// snapshot that already absorbed records up to seq, so future appends
// can never collide with sequence numbers the snapshot owns (replay
// skips those, so a collision would silently lose the new record).
//
// A log already past seq is untouched — any records at or below seq it
// still holds are redundant with the snapshot and harmlessly skipped.
// A log at or behind seq holds only records the snapshot owns (a crash
// between the snapshot commit and the header rewrite of a Checkpoint
// leaves exactly this: the old epoch, possibly with its unsynced tail
// torn away); it is discarded and re-based to seq+1.
func (l *Log) Advance(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.nextSeq > seq {
		return nil
	}
	return l.reset(seq + 1)
}

// NextSeq reports the sequence number the next Append will take.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Size reports the bytes of the log's header and live records; the file
// may be longer, holding stale records of earlier epochs.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Checkpoint empties the log after the caller has captured its state in
// a snapshot, freeing nothing: it syncs every record, then rewrites the
// header in place with the next sequence number as its base and syncs it.
// Appends then overwrite the old records from the front, and replay cuts
// the ones left past them by the sequence rule.  No temp file, rename,
// directory sync or reopen.  A crash at any point leaves the old header
// (the full old log), the new one (an empty log) or a torn one, which
// recovery reads as the old — all consistent with the snapshot-then-
// checkpoint protocol, as long as the snapshot records the sequence it
// absorbed (recovery replays only records after it, so a surviving old
// epoch is merely redundant, never replayed twice).  A log with no
// records since its header was written is left alone.
//
// A failed sync before the rewrite leaves the log poisoned like any failed
// sync; a failed rewrite poisons it too (the header on disk is old, new or
// torn), and the caller must re-open.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	// Everything logged so far must be durable before its header is
	// replaced: the caller's snapshot claims it.
	if err := l.syncLocked(); err != nil {
		return err
	}
	if l.size == headerSize {
		return nil // the header already carries nextSeq
	}
	l.f.SeekWrite(0)
	err := writeHeader(l.f, l.nextSeq)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("wal: checkpoint header: %w", err)
		return l.err
	}
	l.f.SeekWrite(headerSize)
	l.size = headerSize
	l.synced = l.nextSeq - 1 // the snapshot owns everything before here
	return nil
}

// flushLoop is the ModeGroup background flusher.
func (l *Log) flushLoop(interval time.Duration) {
	defer close(l.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs outstanding records and closes the log.  The first error
// encountered is returned; the log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	stop := l.flushStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	if l.err == nil {
		if l.unsynced > 0 {
			if err := l.syncLocked(); err != nil {
				first = err
			}
		}
	} else {
		first = l.err
	}
	if err := l.f.Close(); first == nil && err != nil {
		first = err
	}
	return first
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }
