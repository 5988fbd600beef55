// Package failfs is the filesystem seam under every durable code path:
// snapshot saves (persist.go via WriteFileAtomic, and the durable store in
// internal/wal, which overwrites a recycled spare and exchanges it with the
// snapshot) and the write-ahead log itself.  Production code runs against
// OS, a thin veneer over the os package; tests run against Mem, an
// in-memory filesystem that models crash durability exactly — written
// bytes are volatile until Sync, namespace changes (create, rename,
// exchange, remove) are volatile until SyncDir — and injects faults
// (errors, short writes, whole-process crashes) at deterministic,
// numbered operation points.
//
// The model is deliberately conservative: nothing is durable unless the
// code explicitly synced it, and each write since the last sync may
// survive a crash whole, torn or not at all, independently of the writes
// before and after it.  Code that recovers correctly under this model
// recovers on any real filesystem that honors fsync.
package failfs

import (
	"errors"
	"io"
	"path/filepath"
	"strings"
)

// ErrCrashed is returned by every operation of a Mem filesystem once its
// scheduled crash point is reached: the simulated machine is down, and
// stays down until Crash() applies the durability model and revives it.
var ErrCrashed = errors.New("failfs: simulated crash")

// ErrInjected is the default error returned at a FailAt-scheduled
// operation: a transient fault (disk error, interrupted syscall) that the
// caller must propagate or recover from, distinct from a crash.
var ErrInjected = errors.New("failfs: injected fault")

// FS is the filesystem surface durable code writes through.  All paths
// are interpreted by the implementation; the OS implementation passes
// them to the os package verbatim.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// CreateTemp creates a new unique file in dir, with a name built
	// from pattern by replacing the final "*" (or appending when there
	// is none), like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for reading and writing, creating it if
	// missing and never truncating it: the open mode of files rewritten
	// in place (the write-ahead log, a recycled snapshot spare).  Reads
	// start at offset 0; writes start at the end of the file, and
	// SeekWrite moves them.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname's file.  The
	// rename is volatile until SyncDir on the containing directory.
	Rename(oldname, newname string) error
	// Exchange atomically swaps the files named a and b; both must exist
	// (an error wrapping fs.ErrNotExist otherwise).  Like a rename it is
	// volatile until SyncDir, and unlike a rename over an existing name
	// it frees no file.  Where the platform or filesystem cannot
	// exchange, it returns an error wrapping errors.ErrUnsupported.
	Exchange(a, b string) error
	// Remove unlinks name (volatile until SyncDir).
	Remove(name string) error
	// List returns the names (not full paths) of the files in dir.
	List(dir string) ([]string, error)
	// MkdirAll ensures dir (and its parents) exist.
	MkdirAll(dir string) error
	// SyncDir makes dir's current entries durable: the fsync-the-
	// directory step that commits a Create, Rename, Exchange or Remove.
	SyncDir(dir string) error
}

// File is one open file.  Reads consume a private cursor from the start.
// Writes are positional: each lands at the write offset and advances it,
// overwriting what is there and extending the file past its end.  The
// write offset starts at the end of the file (0 for a new one), and
// SeekWrite moves it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// SeekWrite sets the write offset: the next Write lands at off.
	SeekWrite(off int64)
	// Sync flushes the file's written bytes to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes (used to drop a torn
	// write-ahead-log tail and to shorten a recycled file).
	Truncate(size int64) error
	// Size reports the file's current length in bytes.
	Size() (int64, error)
	// Name returns the path the file was opened under.
	Name() string
}

// ReadAll reads the whole of name through fsys.
func ReadAll(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// WriteFileAtomic commits the bytes write produces to path with
// all-or-nothing visibility: the data lands in a temporary file in the same
// directory, is fsynced, and only then renamed over path, with the
// directory fsynced so the rename itself survives a crash.  A reader (or a
// restart) therefore sees either the complete old file or the complete new
// one — never a torn prefix, which a plain truncate-and-rewrite save can
// leave behind.
//
// Every error path — including a failed Close or directory sync — is
// propagated, and the temporary file is unlinked on any failure so an
// aborted save leaves no litter (a crash still can; see RemoveStaleTemps).
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
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
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		// Close may surface a deferred write-back error: the file is
		// suspect, so abandon it.
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// If this fails the rename happened but its durability is unknown;
	// the temp name is gone either way.
	return fsys.SyncDir(dir)
}

// RemoveStaleTemps removes leftover temporary files of interrupted atomic
// replacements of path: any sibling named like path's base plus ".tmp",
// the pattern WriteFileAtomic writes through (and the durable store wrote
// through before it recycled its files).  A crash mid-save, which the atomic protocol makes harmless but
// cannot clean up, therefore does not accumulate litter.  Best effort: a
// listing failure is left for the caller's own open to surface.  Callers
// must not race it against a concurrent save of the same path.
func RemoveStaleTemps(fsys FS, path string) {
	dir := filepath.Dir(path)
	prefix := filepath.Base(path) + ".tmp"
	names, err := fsys.List(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasPrefix(name, prefix) {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}
