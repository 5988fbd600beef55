package mmdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"cssidx/internal/failfs"
	"cssidx/internal/governor"
	"cssidx/internal/snapio"
	"cssidx/internal/wal"
)

// DurableTable is a Table whose AppendRows batches are write-ahead
// logged before the in-memory table absorbs them: every batch is
// appended to a checksummed log — fsynced per the configured wal.Policy
// — so a crash between Checkpoint snapshots loses nothing the policy
// promised to keep.  Reads (Column, SelectRange, SelectIn, Index, …) go
// straight to the embedded Table; AppendRows and Close are intercepted, and
// SyncWAL, SyncedSeq, LastSeq, LogSize and Checkpoint come from the
// embedded wal.Store.  AppendRows calls are serialized through the log
// and safe for concurrent use; reads follow the Table's own rules.
type DurableTable struct {
	*Table
	*wal.Store[*Table]
}

// OpenDurable opens — or recovers — a durable table rooted at dir: the
// snapshot lives in dir/name.snap, the write-ahead log in dir/name.wal,
// and from the second Checkpoint on dir/name.snap.prev holds the snapshot
// before last as the spare the next Checkpoint overwrites (recovery never
// reads it).  A Checkpoint frees no disk blocks (see wal.Store); the price
// is disk space, two snapshots and a log file that stays at its largest
// size.  On open, temp files an interrupted Checkpoint of an earlier
// build left beside the snapshot or the log are removed, the snapshot (if
// any) is loaded and every log record after the snapshot's covered
// sequence is replayed as an AppendRows batch, with a torn or stale log
// tail detected by checksum and sequence and truncated.  The first
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
// Table.AppendRows, which accepts an empty batch and changes nothing, an
// empty batch is an error.
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
)

// Snapshot layout, one snapio frame: magic u32, version u32, walSeq u64,
// ncols u32, then per column u32 nameLen, name, u32 n, n values; finally
// the CRC-32C trailer over every byte before it, so a torn or bit-flipped
// snapshot is rejected rather than served.
func (tableCodec) Save(w io.Writer, t *Table, seq uint64) error {
	sw := snapio.NewWriter(w, snapMagic, snapVersion)
	sw.U64(seq)
	sw.U32(uint32(len(t.order)))
	for _, name := range t.order {
		raw := t.cols[name].raw
		sw.U32(uint32(len(name)))
		sw.String(name)
		sw.U32(uint32(len(raw)))
		sw.U32s(raw)
	}
	_, err := sw.Close()
	return err
}

// Load decodes a snapshot of either version.
func (c tableCodec) Load(rd io.Reader) (*Table, uint64, error) {
	r := snapio.NewReader(rd)
	magic, version, seq, ncols := r.U32(), r.U32(), r.U64(), r.U32()
	switch {
	case r.Err() != nil:
		return nil, 0, fmt.Errorf("mmdb: corrupt snapshot header: %w", r.Err())
	case magic != snapMagic || version < 1 || version > snapVersion || ncols > 1<<20:
		return nil, 0, fmt.Errorf("mmdb: corrupt snapshot (magic %#x, version %d, %d columns)", magic, version, ncols)
	}
	t := c.Empty()
	fnv := snapio.FNVSeed // the version-1 checksum
	for i := uint32(0); i < ncols && r.Err() == nil; i++ {
		nameLen := r.U32()
		if nameLen > 1<<20 {
			return nil, 0, fmt.Errorf("mmdb: corrupt snapshot (column name length)")
		}
		name := r.String(uint64(nameLen))
		vals := r.AppendU32s(nil, uint64(r.U32()))
		if r.Err() != nil {
			break
		}
		if version == 1 {
			fnv = snapio.FNVU32s(snapio.FNVString(fnv, name), vals)
		}
		if err := t.AddColumn(name, vals); err != nil {
			return nil, 0, err
		}
	}
	if version == 1 {
		if sum := r.U64(); r.Err() == nil && sum != fnv {
			return nil, 0, fmt.Errorf("mmdb: corrupt snapshot: %w", snapio.ErrChecksum)
		}
	} else {
		r.Trailer()
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("mmdb: corrupt snapshot: %w", err)
	}
	return t, seq, nil
}
