package cssidx

import (
	"encoding/binary"
	"fmt"
	"io"

	"cssidx/internal/failfs"
	"cssidx/internal/shard"
	"cssidx/internal/wal"
)

// DurableSharded is a uint32 sharded index whose Insert/Delete batches
// are write-ahead logged: every mutation is appended to a checksummed
// log — fsynced per the configured wal.Policy — before the in-memory
// index absorbs it, so a crash between Checkpoint snapshots loses
// nothing the policy promised to keep.  See OpenWAL for the recovery
// protocol and the per-policy guarantee.
//
// Reads go straight to the embedded ShardedIndex with zero overhead;
// Insert/Delete/Close are intercepted, and SyncWAL, SyncedSeq, LastSeq,
// LogSize and Checkpoint come from the embedded wal.Store.  Mutations are
// safe for concurrent use (serialized through the log); reads are
// lock-free as always.
type DurableSharded struct {
	*ShardedIndex[uint32]
	*wal.Store[*ShardedIndex[uint32]]
}

// Sharded WAL record: op byte, key count, keys.
const (
	shardOpInsert = 1
	shardOpDelete = 2
)

func encodeShardOp(op byte, keys []uint32) []byte {
	buf := make([]byte, 5+4*len(keys))
	buf[0] = op
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(keys)))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(buf[5+4*i:], k)
	}
	return buf
}

func decodeShardOp(payload []byte) (op byte, keys []uint32, err error) {
	if len(payload) < 5 {
		return 0, nil, fmt.Errorf("cssidx: short wal record (%d bytes)", len(payload))
	}
	op = payload[0]
	if op != shardOpInsert && op != shardOpDelete {
		return 0, nil, fmt.Errorf("cssidx: unknown wal op %d", op)
	}
	n := binary.LittleEndian.Uint32(payload[1:5])
	if uint64(len(payload)) != 5+4*uint64(n) {
		return 0, nil, fmt.Errorf("cssidx: wal record claims %d keys in %d bytes", n, len(payload))
	}
	keys = make([]uint32, n)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(payload[5+4*i:])
	}
	return op, keys, nil
}

// OpenWAL opens — or recovers — a durable uint32 sharded index rooted at
// dir: the snapshot lives in dir/name.snap, the write-ahead log in
// dir/name.wal, and from the second Checkpoint on dir/name.snap.prev holds
// the snapshot before last as the spare the next Checkpoint overwrites
// (recovery never reads it).  On open, temp files an interrupted
// Checkpoint of an earlier build left beside the snapshot or the log are
// removed, the snapshot (if any) is loaded and every log record after the
// snapshot's covered sequence is replayed into the index, with a torn or
// stale log tail detected by checksum and sequence and truncated; the
// result is exactly the state the durability policy promised at the
// crash instant.
//
// The crash guarantee, per policy: with wal.Always an Insert/Delete that
// returned is durable; with wal.GroupCommit it is durable within the
// group-commit window (never reordered, never torn); with wal.None only
// Checkpoint/Sync/Close boundaries are durable.  In every mode recovery
// yields a clean prefix of acknowledged mutations — a batch is either
// fully recovered or (beyond the promised watermark) fully absent.
//
// Checkpoint folds the log into a fresh snapshot and empties the log,
// freeing no disk blocks (see wal.Store): the price is disk space, two
// snapshots and a log file that stays at its largest size.  Recovery cost
// is proportional to the log since the last Checkpoint.
//
// The shard partition comes from the snapshot, and Checkpoint keeps it: a
// store created empty is one shard for good.
//
// fsys nil means the real filesystem.
func OpenWAL(fsys failfs.FS, dir, name string, pol wal.Policy) (*DurableSharded, error) {
	st, x, err := wal.OpenStore(fsys, dir, name, pol, shardCodec{})
	if err != nil {
		return nil, err
	}
	x.Sync() // replayed mutations become visible before the first read
	return &DurableSharded{ShardedIndex: x, Store: st}, nil
}

// Insert logs the keys, then enqueues them for insertion; when it
// returns nil the batch is on the log per the policy (see OpenWAL) and
// will become visible at the affected shards' next epoch-swaps.
func (d *DurableSharded) Insert(keys ...uint32) error {
	return d.logOp(shardOpInsert, keys)
}

// Delete logs the keys, then enqueues them for deletion (multiset
// semantics, like ShardedIndex.Delete); same durability as Insert.
func (d *DurableSharded) Delete(keys ...uint32) error {
	return d.logOp(shardOpDelete, keys)
}

func (d *DurableSharded) logOp(op byte, keys []uint32) error {
	if len(keys) == 0 {
		return nil
	}
	return wal.Append(d.Store,
		func() ([]byte, error) { return encodeShardOp(op, keys), nil },
		func() error { applyShardOp(d.ShardedIndex, op, keys); return nil })
}

func applyShardOp(x *ShardedIndex[uint32], op byte, keys []uint32) {
	if op == shardOpInsert {
		x.Insert(keys...)
	} else {
		x.Delete(keys...)
	}
}

// Close syncs and closes the log, then stops the index's background
// rebuilder.  No implicit checkpoint: recovery replays the log.  (Sync,
// unqualified, remains the ShardedIndex visibility wait; SyncWAL is the
// log's.)
func (d *DurableSharded) Close() error { return d.Store.Close() }

// shardCodec is the wal.Store codec of a DurableSharded, and SaveSharded and
// LoadSharded are its Save and Load: the snapshot is one frame of keys and
// shard boundaries carrying the log sequence it covers (0 from SaveSharded),
// a record one encodeShardOp batch.
type shardCodec struct{}

func (shardCodec) Empty() *ShardedIndex[uint32] { return NewSharded(nil, ShardedOptions[uint32]{}) }

func (shardCodec) Load(r io.Reader) (*ShardedIndex[uint32], uint64, error) {
	keys, bounds, seq, err := shard.Load(r)
	if err != nil {
		return nil, 0, err
	}
	return shard.New(keys, bounds, shard.Slots), seq, nil
}

// Save waits for every Insert/Delete that returned to become visible — the
// snapshot captures the view — then writes it.
func (shardCodec) Save(w io.Writer, x *ShardedIndex[uint32], seq uint64) error {
	x.Sync()
	return shard.Save(w, x.Snapshot(), seq)
}

func (shardCodec) Apply(x *ShardedIndex[uint32], payload []byte) error {
	op, keys, err := decodeShardOp(payload)
	if err == nil {
		applyShardOp(x, op, keys)
	}
	return err
}
