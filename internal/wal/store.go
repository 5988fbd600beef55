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

// Store is the durable half of a log → absorb → checkpoint cycle over an
// in-memory state: a snapshot at dir/name.snap that names the last log
// sequence it absorbed, and a write-ahead log at dir/name.wal holding
// every mutation since.  Mutations (see Append) are logged before the
// state absorbs them, so a crash between checkpoints loses nothing the
// Policy promised to keep; recovery is the snapshot plus a replay of the
// log records after its sequence.  All methods are safe for concurrent
// use.
//
// A Checkpoint reuses its files rather than replacing them, so it frees
// no disk blocks, which is slow on a filesystem that discards them.  The
// price is disk space: two snapshots (name.snap and the spare
// name.snap.prev, which recovery never reads), and a log that stays at
// its largest size.
type Store[S interface{ Close() }] struct {
	fsys      failfs.FS
	snapPath  string
	sparePath string
	codec     Codec[S]
	state     S

	mu       sync.Mutex
	log      *Log
	lastSeq  uint64 // last sequence absorbed by state
	dirDirty bool   // an exchange or rename may not be durable yet
}

// OpenStore opens — or recovers — the store rooted at dir and returns it
// with its state.  It first removes the temp files an interrupted
// Checkpoint of earlier builds, which wrote through temps, could leave
// beside the snapshot or the log, then loads the snapshot (if any),
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
	s := &Store[S]{fsys: fsys, snapPath: snapPath, sparePath: snapPath + ".prev", codec: codec, state: state, log: log, lastSeq: snapSeq}
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

// LogSize reports the bytes of the write-ahead log's live records (and
// header): the recovery debt a Checkpoint would clear.  The file itself
// keeps its largest size.
func (s *Store[S]) LogSize() int64 { return s.log.Size() }

// Checkpoint captures the state in a fresh snapshot and empties the log.
// The snapshot overwrites the spare name.snap.prev from offset 0, is cut
// to length (a no-op while the state grows) and fsynced, and then trades
// names with name.snap in one atomic exchange, committed by a directory
// fsync; the first checkpoint, with no name.snap yet, renames instead, as
// does a platform or filesystem that cannot exchange.  The file named
// name.snap is never written while it has that name, so a crash anywhere
// leaves the old snapshot or the new one.  Each records the log sequence
// it absorbed, and replay skips the records it already owns, so either
// recovers correctly beside the old log or the emptied one.
func (s *Store[S]) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.saveSnapshot(); err != nil {
		return err
	}
	return s.log.Checkpoint()
}

// saveSnapshot writes the state into the spare and swaps it in; s.mu held.
func (s *Store[S]) saveSnapshot() error {
	dir := filepath.Dir(s.snapPath)
	if s.dirDirty {
		// The last swap's directory sync failed, so the spare may still
		// be name.snap on disk: commit the swap before writing over it.
		if err := s.fsys.SyncDir(dir); err != nil {
			return err
		}
		s.dirDirty = false
	}
	f, err := s.fsys.OpenAppend(s.sparePath)
	if err != nil {
		return err
	}
	f.SeekWrite(0)
	w := &countingWriter{w: f}
	err = s.codec.Save(w, s.state, s.lastSeq)
	if err == nil {
		err = cutTo(f, w.n)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	err = s.fsys.Exchange(s.sparePath, s.snapPath)
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, errors.ErrUnsupported) {
		err = s.fsys.Rename(s.sparePath, s.snapPath)
	}
	if err != nil {
		return err
	}
	if err := s.fsys.SyncDir(dir); err != nil {
		s.dirDirty = true
		return err
	}
	return nil
}

// cutTo truncates f to n bytes when a longer file was overwritten.
func cutTo(f failfs.File, n int64) error {
	size, err := f.Size()
	if err != nil || size == n {
		return err
	}
	return f.Truncate(n)
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
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
