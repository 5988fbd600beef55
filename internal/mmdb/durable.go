package mmdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"

	"cssidx/internal/failfs"
	"cssidx/internal/governor"
	"cssidx/internal/qcache"
	"cssidx/internal/wal"
)

// DurableTable is a Table whose AppendRows batches are write-ahead
// logged before the in-memory table absorbs them: every batch is
// appended to a checksummed log — fsynced per the configured wal.Policy
// — so a crash between Checkpoint snapshots loses nothing the policy
// promised to keep.  Reads (Column, SelectEqual, Join, …) go straight
// to the embedded Table; AppendRows, Checkpoint and Close are
// intercepted.  AppendRows calls are serialized through the log and
// safe for concurrent use; reads follow the Table's own rules.
type DurableTable struct {
	*Table

	fsys     failfs.FS
	snapPath string

	mu      sync.Mutex
	log     *wal.Log
	lastSeq uint64 // last sequence absorbed by the in-memory table
}

// OpenDurable opens — or recovers — a durable table rooted at dir: the
// snapshot lives in dir/name.snap, the write-ahead log in dir/name.wal.
// On open, the snapshot (if any) is loaded and every log record after
// the snapshot's covered sequence is replayed as an AppendRows batch,
// with a torn log tail detected by checksum and truncated.  The first
// batch ever logged on an empty table defines the schema, so a table
// born and crashed before its first Checkpoint still recovers whole.
//
// The crash guarantee, per policy: with wal.Always an AppendRows that
// returned is durable; with wal.GroupCommit it is durable within the
// group-commit window; with wal.None only Checkpoint/Sync/Close
// boundaries are.  In every mode recovery yields a clean prefix of
// acknowledged batches — a batch is either fully recovered (all
// columns, all rows) or fully absent; no torn batch is ever visible.
//
// fsys nil means the real filesystem.
func OpenDurable(fsys failfs.FS, dir, name string, pol wal.Policy) (*DurableTable, error) {
	if fsys == nil {
		fsys = failfs.OS
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("mmdb: creating %s: %w", dir, err)
	}
	snapPath := filepath.Join(dir, name+".snap")
	walPath := filepath.Join(dir, name+".wal")

	var (
		t       *Table
		snapSeq uint64
	)
	tb, seq, err := loadTableSnapshot(fsys, snapPath, name)
	switch {
	case err == nil:
		t, snapSeq = tb, seq
	case errors.Is(err, fs.ErrNotExist):
		t = NewTable(name)
	default:
		return nil, err
	}

	log, recs, err := wal.Open(fsys, walPath, pol)
	if err != nil {
		return nil, err
	}
	if err := log.Advance(snapSeq); err != nil {
		log.Close()
		return nil, err
	}
	lastSeq := snapSeq
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			continue // already folded into the snapshot
		}
		names, cols, derr := decodeBatch(rec.Payload)
		if derr != nil {
			log.Close()
			return nil, derr
		}
		if err := applyBatch(t, names, cols); err != nil {
			log.Close()
			return nil, fmt.Errorf("mmdb: replaying wal record %d: %w", rec.Seq, err)
		}
		lastSeq = rec.Seq
	}
	return &DurableTable{
		Table:    t,
		fsys:     fsys,
		snapPath: snapPath,
		log:      log,
		lastSeq:  lastSeq,
	}, nil
}

// AppendRows validates the batch, logs it, then applies it to the
// table.  When it returns nil the batch is on the log per the policy
// (see OpenDurable); a non-nil error means the batch was neither logged
// nor applied.  On an empty table the batch defines the schema (columns
// in sorted-name order), standing in for AddColumn.
func (d *DurableTable) AppendRows(newCols map[string][]uint32) error {
	return d.appendRows(nil, newCols)
}

// AppendRowsCtx is AppendRows honoring ctx's cancellation and deadline.
// The context is checked up to the moment before the batch hits the log;
// once logged, the batch is applied unconditionally — a record the WAL
// acknowledged must be visible in the table, or recovery and the live
// image would diverge.  So a cancelled durable append either never
// touched the log or is fully durable and applied; it never leaks a
// logged-but-unapplied record.
func (d *DurableTable) AppendRowsCtx(ctx context.Context, newCols map[string][]uint32) error {
	err := d.appendRows(governor.For(ctx), newCols)
	if err != nil {
		governor.NoteAbort(err)
	}
	return err
}

func (d *DurableTable) appendRows(ctl *governor.Ctl, newCols map[string][]uint32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	names, err := d.validateBatch(newCols)
	if err != nil {
		return err
	}
	// Last cancellation point: past here the record is on the log and
	// the apply must follow.
	if err := ctl.Err(); err != nil {
		return err
	}
	seq, err := d.log.Append(encodeBatch(names, newCols))
	if err != nil {
		return err
	}
	if err := applyBatch(d.Table, names, newCols); err != nil {
		// Cannot happen after validation; if it somehow does, the log
		// and table have diverged and continuing would corrupt both.
		panic(fmt.Sprintf("mmdb: logged batch failed to apply: %v", err))
	}
	d.lastSeq = seq
	return nil
}

// validateBatch performs Table.AppendRows's checks up front — before
// the batch hits the log — and returns the column order to encode:
// definition order for an existing schema, sorted-name order for the
// schema-defining first batch (map iteration order is not
// deterministic, and replay must reproduce the exact schema).
func (d *DurableTable) validateBatch(newCols map[string][]uint32) ([]string, error) {
	if len(newCols) == 0 {
		return nil, errors.New("mmdb: empty batch")
	}
	var names []string
	if len(d.Table.cols) == 0 {
		names = make([]string, 0, len(newCols))
		for name := range newCols {
			names = append(names, name)
		}
		sort.Strings(names)
	} else {
		if len(newCols) != len(d.Table.order) {
			return nil, fmt.Errorf("mmdb: batch has %d columns, table %s has %d", len(newCols), d.Table.name, len(d.Table.order))
		}
		names = d.Table.order
	}
	batch := -1
	for _, name := range names {
		vals, ok := newCols[name]
		if !ok {
			return nil, fmt.Errorf("mmdb: batch missing column %s", name)
		}
		if batch == -1 {
			batch = len(vals)
		} else if len(vals) != batch {
			return nil, fmt.Errorf("mmdb: batch column %s has %d rows, want %d", name, len(vals), batch)
		}
	}
	if batch == 0 {
		return nil, errors.New("mmdb: empty batch")
	}
	return names, nil
}

// applyBatch applies a decoded batch: AddColumn per column when the
// table is empty (schema-defining), AppendRows otherwise.
func applyBatch(t *Table, names []string, cols map[string][]uint32) error {
	if len(t.cols) == 0 {
		for _, name := range names {
			if err := t.AddColumn(name, cols[name]); err != nil {
				return err
			}
		}
		return nil
	}
	return t.AppendRows(cols)
}

// SyncWAL forces every acknowledged batch durable now, regardless of
// policy.
func (d *DurableTable) SyncWAL() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Sync()
}

// SyncedSeq reports the last log sequence known durable.
func (d *DurableTable) SyncedSeq() uint64 { return d.log.SyncedSeq() }

// LastSeq reports the last log sequence absorbed by the table.
func (d *DurableTable) LastSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastSeq
}

// LogSize reports the write-ahead log's current size in bytes: the
// recovery debt a Checkpoint would clear.
func (d *DurableTable) LogSize() int64 { return d.log.Size() }

// Checkpoint captures the table in a fresh snapshot (atomically: temp +
// fsync + rename + directory fsync) and truncates the log.  The
// snapshot records the log sequence it absorbed, so a crash anywhere
// inside Checkpoint recovers correctly — replay skips records the
// snapshot already owns.
func (d *DurableTable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.lastSeq
	if err := writeTableAtomic(d.fsys, d.snapPath, d.Table, seq); err != nil {
		return err
	}
	return d.log.Checkpoint()
}

// Close syncs and closes the log and drops the table (Table.Close).  No
// implicit checkpoint: recovery replays the log.
func (d *DurableTable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Table.Close()
	return d.log.Close()
}

// --- batch codec -------------------------------------------------------------

// Batch payload: u32 ncols, then per column u32 nameLen, name bytes,
// u32 n, n little-endian u32 values.  Column order is the table's
// definition order (or sorted names for the schema-defining batch), so
// encoding is deterministic and replay reconstructs the schema exactly.
func encodeBatch(names []string, cols map[string][]uint32) []byte {
	size := 4
	for _, name := range names {
		size += 8 + len(name) + 4*len(cols[name])
	}
	buf := make([]byte, 0, size)
	var u [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u[:], v)
		buf = append(buf, u[:]...)
	}
	put(uint32(len(names)))
	for _, name := range names {
		put(uint32(len(name)))
		buf = append(buf, name...)
		vals := cols[name]
		put(uint32(len(vals)))
		for _, v := range vals {
			put(v)
		}
	}
	return buf
}

func decodeBatch(payload []byte) (names []string, cols map[string][]uint32, err error) {
	bad := func(what string) ([]string, map[string][]uint32, error) {
		return nil, nil, fmt.Errorf("mmdb: malformed wal batch (%s)", what)
	}
	next := func() (uint32, bool) {
		if len(payload) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		return v, true
	}
	ncols, ok := next()
	if !ok {
		return bad("truncated header")
	}
	if ncols == 0 || uint64(ncols) > uint64(len(payload)) {
		return bad("column count")
	}
	names = make([]string, 0, ncols)
	cols = make(map[string][]uint32, ncols)
	for i := uint32(0); i < ncols; i++ {
		nameLen, ok := next()
		if !ok || uint64(nameLen) > uint64(len(payload)) {
			return bad("column name length")
		}
		name := string(payload[:nameLen])
		payload = payload[nameLen:]
		n, ok := next()
		if !ok || 4*uint64(n) > uint64(len(payload)) {
			return bad("value count")
		}
		vals := make([]uint32, n)
		for j := range vals {
			vals[j] = binary.LittleEndian.Uint32(payload[4*j:])
		}
		payload = payload[4*n:]
		if _, dup := cols[name]; dup {
			return bad("duplicate column " + name)
		}
		names = append(names, name)
		cols[name] = vals
	}
	if len(payload) != 0 {
		return bad("trailing bytes")
	}
	return names, cols, nil
}

// --- snapshot codec ----------------------------------------------------------

const (
	snapMagic = 0x43534454 // "CSDT"
	// snapVersion is the version written.  Version 1 — the same layout
	// under a u64 FNV-1a trailer over each column's name and values — still
	// loads.
	snapVersion = 2
	// snapChunk bounds a single read/allocation when decoding column
	// values, so a corrupt length prefix cannot force a huge allocation:
	// memory grows only as fast as bytes actually read.
	snapChunk = 1 << 16
)

// snapCRC is the write-ahead log's checksum (CRC-32C): hardware-assisted,
// and taken over the byte buffers the codec moves anyway.
var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// writeTableAtomic commits a snapshot of t (covering log sequences up to
// seq) to path with all-or-nothing visibility, mirroring the root
// package's writeFileAtomic: temp + fsync + rename + directory fsync,
// every error propagated, the temp unlinked on failure.
func writeTableAtomic(fsys failfs.FS, path string, t *Table, seq uint64) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := saveTableSnapshot(f, t, seq); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// Snapshot layout: magic u32, version u32, walSeq u64, ncols u32, then
// per column u32 nameLen, name, u32 n, n values; finally a u32 CRC-32C of
// every byte before it, so a torn or bit-flipped snapshot is rejected
// rather than served.
func saveTableSnapshot(w io.Writer, t *Table, seq uint64) error {
	var u [8]byte
	var crc uint32
	wr := func(b []byte) error {
		crc = crc32.Update(crc, snapCRC, b)
		_, err := w.Write(b)
		return err
	}
	pu32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u[:4], v)
		return wr(u[:4])
	}
	if err := pu32(snapMagic); err != nil {
		return err
	}
	if err := pu32(snapVersion); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(u[:], seq)
	if err := wr(u[:]); err != nil {
		return err
	}
	if err := pu32(uint32(len(t.order))); err != nil {
		return err
	}
	for _, name := range t.order {
		c := t.cols[name]
		if err := pu32(uint32(len(name))); err != nil {
			return err
		}
		if err := wr([]byte(name)); err != nil {
			return err
		}
		if err := pu32(uint32(len(c.raw))); err != nil {
			return err
		}
		buf := make([]byte, 0, 4*min(len(c.raw), snapChunk))
		for off := 0; off < len(c.raw); off += snapChunk {
			end := min(off+snapChunk, len(c.raw))
			buf = buf[:0]
			for _, v := range c.raw[off:end] {
				buf = binary.LittleEndian.AppendUint32(buf, v)
			}
			if err := wr(buf); err != nil {
				return err
			}
		}
	}
	return pu32(crc)
}

func loadTableSnapshot(fsys failfs.FS, path, name string) (*Table, uint64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, 0, err
	}
	t, seq, err := decodeTableSnapshot(f, name)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	return t, seq, nil
}

func decodeTableSnapshot(r io.Reader, name string) (*Table, uint64, error) {
	bad := func(what string) (*Table, uint64, error) {
		return nil, 0, fmt.Errorf("mmdb: corrupt snapshot (%s)", what)
	}
	var u [8]byte
	var crc uint32
	read := func(b []byte) error {
		_, err := io.ReadFull(r, b)
		crc = crc32.Update(crc, snapCRC, b)
		return err
	}
	ru32 := func() (uint32, error) {
		err := read(u[:4])
		return binary.LittleEndian.Uint32(u[:4]), err
	}
	magic, err := ru32()
	if err != nil {
		return bad("short header")
	}
	if magic != snapMagic {
		return bad("bad magic")
	}
	version, err := ru32()
	if err != nil || version < 1 || version > snapVersion {
		return bad("version")
	}
	if err := read(u[:]); err != nil {
		return bad("short header")
	}
	seq := binary.LittleEndian.Uint64(u[:])
	ncols, err := ru32()
	if err != nil {
		return bad("short header")
	}
	if ncols > 1<<20 {
		return bad("column count")
	}
	t := NewTable(name)
	fnv := uint64(qcache.HashSeed) // the version-1 checksum
	for i := uint32(0); i < ncols; i++ {
		nameLen, err := ru32()
		if err != nil {
			return bad("column name length")
		}
		if nameLen > 1<<20 {
			return bad("column name length")
		}
		nameBuf := make([]byte, nameLen)
		if err := read(nameBuf); err != nil {
			return bad("column name")
		}
		n, err := ru32()
		if err != nil {
			return bad("row count")
		}
		// Chunked decode: allocation tracks bytes actually present, so
		// a corrupt count fails at EOF instead of ballooning memory.
		vals := make([]uint32, 0, min(int(n), snapChunk))
		raw := make([]byte, 4*min(int(n), snapChunk))
		for got := 0; got < int(n); {
			step := min(int(n)-got, snapChunk)
			if err := read(raw[:4*step]); err != nil {
				return bad("column values")
			}
			for j := 0; j < step; j++ {
				vals = append(vals, binary.LittleEndian.Uint32(raw[4*j:]))
			}
			got += step
		}
		colName := string(nameBuf)
		if version == 1 {
			fnv = qcache.HashU32s(qcache.HashString(fnv, colName), vals)
		}
		if err := t.AddColumn(colName, vals); err != nil {
			return nil, 0, err
		}
	}
	// The trailer is the one read the checksum does not cover.
	want, trailer := uint64(crc), u[:4]
	if version == 1 {
		want, trailer = fnv, u[:]
	}
	clear(u[:])
	if _, err := io.ReadFull(r, trailer); err != nil {
		return bad("missing checksum")
	}
	if binary.LittleEndian.Uint64(u[:]) != want {
		return bad("checksum mismatch")
	}
	return t, seq, nil
}
