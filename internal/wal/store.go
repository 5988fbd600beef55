package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"

	"cssidx/internal/failfs"
)

// Codec is what a Store needs to know about its in-memory state S: how to
// start one empty, read and write its snapshot, and absorb one logged
// payload.  The store closes S (S.Close) when it closes or when a failed
// open abandons it.
type Codec[S interface{ Close() }] interface {
	// Empty returns the state of a store with no snapshot.
	Empty() S
	// Load decodes a snapshot written by Save, returning the state and
	// the log sequence it covers.  Corrupt input is an error.
	Load(r io.Reader) (S, uint64, error)
	// Save encodes state, which covers log sequences up to seq.
	Save(w io.Writer, state S, seq uint64) error
	// Apply replays one logged payload into state.
	Apply(state S, payload []byte) error
}

// Store is the durable half of a log → absorb → checkpoint → truncate
// cycle over an in-memory state: a snapshot at dir/name.snap that names
// the last log sequence it absorbed, and a write-ahead log at
// dir/name.wal holding every mutation since.  Mutations (see Append) are
// logged before the state absorbs them, so a crash between checkpoints
// loses nothing the Policy promised to keep; recovery is the snapshot plus
// a replay of the log records after its sequence.  All methods are safe
// for concurrent use.
type Store[S interface{ Close() }] struct {
	fsys     failfs.FS
	snapPath string
	codec    Codec[S]
	state    S

	mu      sync.Mutex
	log     *Log
	lastSeq uint64 // last sequence absorbed by state
}

// OpenStore opens — or recovers — the store rooted at dir and returns it
// with its state.  It first removes temp files an interrupted Checkpoint
// left beside the snapshot or the log, then loads the snapshot (if any),
// opens the log — truncating a torn tail — and replays every record after
// the snapshot's sequence through codec.Apply.  The result is exactly the
// state the policy promised at the crash instant: a clean prefix of
// acknowledged mutations, each one whole or absent.  fsys nil means the
// real filesystem.
func OpenStore[S interface{ Close() }](fsys failfs.FS, dir, name string, pol Policy, codec Codec[S]) (*Store[S], S, error) {
	var zero S
	if fsys == nil {
		fsys = failfs.OS
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, zero, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	snapPath := filepath.Join(dir, name+".snap")
	walPath := filepath.Join(dir, name+".wal")
	failfs.RemoveStaleTemps(fsys, snapPath)
	failfs.RemoveStaleTemps(fsys, walPath)

	state, snapSeq, err := loadSnapshot(fsys, snapPath, codec)
	if err != nil {
		return nil, zero, err
	}
	log, recs, err := Open(fsys, walPath, pol)
	if err != nil {
		state.Close()
		return nil, zero, err
	}
	s := &Store[S]{fsys: fsys, snapPath: snapPath, codec: codec, state: state, log: log, lastSeq: snapSeq}
	if err := s.replay(recs); err != nil {
		s.Close()
		return nil, zero, err
	}
	return s, state, nil
}

func loadSnapshot[S interface{ Close() }](fsys failfs.FS, path string, codec Codec[S]) (S, uint64, error) {
	f, err := fsys.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return codec.Empty(), 0, nil
	}
	if err != nil {
		var zero S
		return zero, 0, err
	}
	defer f.Close()
	return codec.Load(f)
}

// replay re-bases the log past the snapshot's sequence (s.lastSeq), then
// applies every record after it.
func (s *Store[S]) replay(recs []Record) error {
	if err := s.log.Advance(s.lastSeq); err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Seq <= s.lastSeq {
			continue // already folded into the snapshot
		}
		// A checksummed record that does not apply is a logic error,
		// not corruption; refuse rather than guess.
		if err := s.codec.Apply(s.state, rec.Payload); err != nil {
			return fmt.Errorf("wal: replaying record %d: %w", rec.Seq, err)
		}
		s.lastSeq = rec.Seq
	}
	return nil
}

// Append is a store's one mutation path.  Under the store's lock, prepare
// validates the mutation against the state and encodes it, the log takes
// the payload, and apply makes it visible; an error from prepare or the
// log means nothing was logged or applied.  A logged record must reach the
// state, or recovery and the live image would diverge, so an apply error
// panics.  Append is a function, not a method, so that types embedding
// *Store do not export it.
func Append[S interface{ Close() }](s *Store[S], prepare func() ([]byte, error), apply func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, err := prepare()
	if err != nil {
		return err
	}
	seq, err := s.log.Append(payload)
	if err != nil {
		return err
	}
	if err := apply(); err != nil {
		panic(fmt.Sprintf("wal: logged record %d failed to apply: %v", seq, err))
	}
	s.lastSeq = seq
	return nil
}

// SyncWAL forces every acknowledged mutation durable now, regardless of
// policy.
func (s *Store[S]) SyncWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Sync()
}

// SyncedSeq reports the last log sequence known durable.
func (s *Store[S]) SyncedSeq() uint64 { return s.log.SyncedSeq() }

// LastSeq reports the last log sequence absorbed by the state.
func (s *Store[S]) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// LogSize reports the write-ahead log's current size in bytes: the
// recovery debt a Checkpoint would clear.
func (s *Store[S]) LogSize() int64 { return s.log.Size() }

// Checkpoint captures the state in a fresh snapshot (atomically: temp +
// fsync + rename + directory fsync) and truncates the log.  The snapshot
// records the log sequence it absorbed, so a crash anywhere inside
// Checkpoint recovers correctly: the old snapshot with the full log, or
// the new snapshot with the old log or the truncated one — replay skips
// records the snapshot already owns.
func (s *Store[S]) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.lastSeq
	if err := failfs.WriteFileAtomic(s.fsys, s.snapPath, func(w io.Writer) error {
		return s.codec.Save(w, s.state, seq)
	}); err != nil {
		return err
	}
	return s.log.Checkpoint()
}

// Close syncs and closes the log, then closes the state.  No implicit
// checkpoint: recovery replays the log.
func (s *Store[S]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.log.Close()
	s.state.Close()
	return err
}
