package mmdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"slices"

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
// to the embedded Table; AppendRows and Close are intercepted, and
// SyncWAL, SyncedSeq, LastSeq, LogSize and Checkpoint come from the
// embedded wal.Store.  AppendRows calls are serialized through the log
// and safe for concurrent use; reads follow the Table's own rules.
type DurableTable struct {
	*Table
	*wal.Store[*Table]
}

// OpenDurable opens — or recovers — a durable table rooted at dir: the
// snapshot lives in dir/name.snap, the write-ahead log in dir/name.wal.
// On open, temp files an interrupted Checkpoint left beside either are
// removed, the snapshot (if any) is loaded and every log record after
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
	st, t, err := wal.OpenStore(fsys, dir, name, pol, tableCodec(name))
	if err != nil {
		return nil, err
	}
	return &DurableTable{Table: t, Store: st}, nil
}

// AppendRows validates the batch, logs it, then applies it to the
// table.  When it returns nil the batch is on the log per the policy
// (see OpenDurable); a non-nil error means the batch was neither logged
// nor applied.  On an empty table the batch defines the schema (columns
// in sorted-name order), standing in for AddColumn.  Unlike
// Table.AppendRows, where an empty batch forces a fold, an empty batch is
// an error.
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
	t := d.Table
	var (
		names []string
		batch int
	)
	return wal.Append(d.Store, func() ([]byte, error) {
		// Map iteration order is not deterministic, and replay must
		// reproduce the exact schema: the defining batch logs its
		// columns in sorted-name order.
		names = t.order
		if len(t.cols) == 0 {
			names = slices.Sorted(maps.Keys(newCols))
		}
		var err error
		if batch, err = validateBatch(names, newCols); err != nil {
			return nil, err
		}
		if batch == 0 {
			return nil, errors.New("mmdb: empty batch")
		}
		// Last cancellation point: past here the record is on the log
		// and the apply must follow.
		if err := ctl.Err(); err != nil {
			return nil, err
		}
		return encodeBatch(names, newCols), nil
	}, func() error { return applyBatch(t, names, newCols, batch) })
}

// applyBatch applies a validated batch of batch rows: AddColumn per column,
// in names order, when it defines the schema of an empty table, the
// table's append path otherwise.
func applyBatch(t *Table, names []string, cols map[string][]uint32, batch int) error {
	if len(t.cols) != 0 {
		t.applyRows(cols, batch)
		return nil
	}
	for _, name := range names {
		if err := t.AddColumn(name, cols[name]); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes the log and drops the table (Table.Close).  No
// implicit checkpoint: recovery replays the log.
func (d *DurableTable) Close() error { return d.Store.Close() }

// tableCodec is the wal.Store codec of a DurableTable named by its value:
// snapshots as below, records one encodeBatch batch.
type tableCodec string

func (c tableCodec) Empty() *Table { return NewTable(string(c)) }

// Apply replays a logged batch under the live path's validation.
func (tableCodec) Apply(t *Table, payload []byte) error {
	names, cols, err := decodeBatch(payload)
	if err != nil {
		return err
	}
	order := t.order
	if len(t.cols) == 0 {
		order = names
	}
	batch, err := validateBatch(order, cols)
	if err != nil {
		return err
	}
	return applyBatch(t, names, cols, batch)
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

// Snapshot layout: magic u32, version u32, walSeq u64, ncols u32, then
// per column u32 nameLen, name, u32 n, n values; finally a u32 CRC-32C of
// every byte before it, so a torn or bit-flipped snapshot is rejected
// rather than served.
func (tableCodec) Save(w io.Writer, t *Table, seq uint64) error {
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

// Load decodes a snapshot of either version.
func (c tableCodec) Load(r io.Reader) (*Table, uint64, error) {
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
	t := c.Empty()
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
