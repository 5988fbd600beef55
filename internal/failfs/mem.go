package failfs

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Mem is the deterministic fault-injection filesystem.  It models two
// images of the world:
//
//   - the volatile image: what the running process observes — every
//     write, create, rename, exchange, remove is visible immediately;
//   - the durable image: what survives a crash — file bytes become
//     durable at Sync, namespace entries (which names exist and which
//     node they point to) become durable at SyncDir on their directory.
//
// Every operation is a numbered failpoint.  SetCrashAt(n) makes the nth
// operation — and every operation after it — return ErrCrashed, freezing
// both images at the crash instant; Crash() then applies the durability
// model (each write since a file's last Sync survives whole, torn or not
// at all, chosen per write by the seeded RNG) and revives the filesystem
// so recovery code can reopen it.  FailAt and ShortWriteAt inject
// non-fatal faults at a numbered operation instead.
//
// All methods are safe for concurrent use; the operation numbering is a
// single global sequence.
type Mem struct {
	mu     sync.Mutex
	rng    *rand.Rand
	gen    int // bumped by Crash: handles from before a crash are dead
	ops    int
	trace  []string
	crash  int // op index that crashes; -1 = never
	down   bool
	fail   map[int]error
	short  map[int]bool
	tmpSeq int

	// scenario, when set, decides a fate for every operation the one-shot
	// schedules above left alone (see scenario.go).
	scenario Scenario

	live    map[string]*memNode
	durable map[string]*memNode
}

// memNode is one file's contents.  data is the volatile image; synced is
// the durable image (the content as of the last Sync); pending holds the
// writes since then, in order, each of which a crash may keep or drop.
// Node identity travels through renames and exchanges, so a synced file
// keeps its bytes under its new name.
type memNode struct {
	data    []byte
	synced  []byte
	pending []memWrite
}

// memWrite is one unsynced write: p landed at offset off.
type memWrite struct {
	off int
	p   []byte
}

// put copies p into data at off, zero-filling any gap past its end.
func put(data []byte, off int, p []byte) []byte {
	if end := off + len(p); end > len(data) {
		data = append(data, make([]byte, end-len(data))...)
	}
	copy(data[off:], p)
	return data
}

// NewMem creates an empty Mem filesystem; seed drives every
// nondeterministic choice (torn-tail lengths, corruption) so a run is
// exactly reproducible.
func NewMem(seed int64) *Mem {
	return &Mem{
		rng:     rand.New(rand.NewSource(seed)),
		crash:   -1,
		fail:    map[int]error{},
		short:   map[int]bool{},
		live:    map[string]*memNode{},
		durable: map[string]*memNode{},
	}
}

// SetCrashAt schedules the crash at the nth operation (0-based); -1
// cancels.  The crashing operation takes no effect and returns
// ErrCrashed, as does everything after it until Crash().
func (m *Mem) SetCrashAt(n int) {
	m.mu.Lock()
	m.crash = n
	m.mu.Unlock()
}

// FailAt schedules err (ErrInjected when nil) as the result of the nth
// operation.  Unlike a crash, the fault is one-shot: the operation takes
// no effect, and the filesystem keeps running.
func (m *Mem) FailAt(n int, err error) {
	if err == nil {
		err = ErrInjected
	}
	m.mu.Lock()
	m.fail[n] = err
	m.mu.Unlock()
}

// ShortWriteAt makes the nth operation, when it is a Write, apply only a
// seeded-random prefix of its buffer before failing — the torn in-flight
// write a caller must detect or roll back.
func (m *Mem) ShortWriteAt(n int) {
	m.mu.Lock()
	m.short[n] = true
	m.mu.Unlock()
}

// OpCount reports how many operations have run (or been refused); a
// fault-free rehearsal's OpCount enumerates the crash schedule.
func (m *Mem) OpCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Trace returns the name of every operation so far, in order: the
// failpoint schedule by name ("write:db/wal", "sync-dir:db", …).
func (m *Mem) Trace() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.trace...)
}

// Downed reports whether the scheduled crash point has been reached.
func (m *Mem) Downed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// step numbers one operation and applies the schedule; m.mu held.
func (m *Mem) step(name string) error {
	if m.down {
		return ErrCrashed
	}
	n := m.ops
	m.ops++
	m.trace = append(m.trace, name)
	if n == m.crash {
		m.down = true
		return ErrCrashed
	}
	if err, ok := m.fail[n]; ok {
		delete(m.fail, n)
		return fmt.Errorf("%s: %w", name, err)
	}
	if m.short[n] {
		return nil // ShortWriteAt owns this op; Write applies the tear
	}
	return m.applyScenario(name, n)
}

// Crash applies the durability model and revives the filesystem:
//
//   - the namespace reverts to the last SyncDir-committed entries;
//   - each surviving file reverts to its synced bytes, then replays its
//     unsynced writes in order, each one independently surviving whole,
//     torn (a seeded-random prefix, its final byte possibly corrupted) or
//     not at all — so a later write can survive an earlier lost one, and
//     a gap it leaves past the old end reads as zeros;
//   - every File handle opened before the crash goes stale (ErrCrashed).
//
// The crash schedule is cleared; recovery code may now reopen files.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.down = false
	m.crash = -1
	m.live = map[string]*memNode{}
	names := make([]string, 0, len(m.durable))
	for name := range m.durable {
		names = append(names, name)
	}
	sort.Strings(names) // the RNG's draws follow a fixed order
	for _, name := range names {
		n := m.durable[name]
		kept := append([]byte(nil), n.synced...)
		for _, w := range n.pending {
			switch m.rng.Intn(3) {
			case 0: // lost
			case 1:
				kept = put(kept, w.off, w.p)
			default: // torn
				if len(w.p) == 0 {
					continue
				}
				part := append([]byte(nil), w.p[:1+m.rng.Intn(len(w.p))]...)
				if m.rng.Intn(2) == 0 {
					part[len(part)-1] ^= 0x5A // trailing garbage
				}
				kept = put(kept, w.off, part)
			}
		}
		node := &memNode{data: kept, synced: append([]byte(nil), kept...)}
		m.live[name] = node
		m.durable[name] = node
	}
}

// DurableLen reports the synced length of name, or -1 when name is not
// durably linked: a test probe, not a numbered operation.
func (m *Mem) DurableLen(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.durable[name]
	if !ok {
		return -1
	}
	return len(n.synced)
}

// --- FS implementation -------------------------------------------------------

func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("create:" + name); err != nil {
		return nil, err
	}
	n := &memNode{}
	m.live[name] = n
	return &memFile{fs: m, node: n, name: name, gen: m.gen}, nil
}

func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("create-temp:" + filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	m.tmpSeq++
	base := pattern
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		base = pattern[:i] + fmt.Sprintf("%06d", m.tmpSeq) + pattern[i+1:]
	} else {
		base = pattern + fmt.Sprintf("%06d", m.tmpSeq)
	}
	name := filepath.Join(dir, base)
	n := &memNode{}
	m.live[name] = n
	return &memFile{fs: m, node: n, name: name, gen: m.gen}, nil
}

func (m *Mem) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("open:" + name); err != nil {
		return nil, err
	}
	n, ok := m.live[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{fs: m, node: n, name: name, gen: m.gen, rdonly: true}, nil
}

func (m *Mem) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("open-append:" + name); err != nil {
		return nil, err
	}
	n, ok := m.live[name]
	if !ok {
		n = &memNode{}
		m.live[name] = n
	}
	return &memFile{fs: m, node: n, name: name, gen: m.gen, woff: len(n.data)}, nil
}

func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("rename:" + oldname + "->" + newname); err != nil {
		return err
	}
	n, ok := m.live[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.live, oldname)
	m.live[newname] = n
	return nil
}

// Exchange swaps the nodes a and b name in the volatile namespace; like a
// rename it is durable at SyncDir.
func (m *Mem) Exchange(a, b string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("exchange:" + a + "<->" + b); err != nil {
		return err
	}
	na, ok := m.live[a]
	if !ok {
		return &fs.PathError{Op: "exchange", Path: a, Err: fs.ErrNotExist}
	}
	nb, ok := m.live[b]
	if !ok {
		return &fs.PathError{Op: "exchange", Path: b, Err: fs.ErrNotExist}
	}
	m.live[a], m.live[b] = nb, na
	return nil
}

func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("remove:" + name); err != nil {
		return err
	}
	if _, ok := m.live[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.live, name)
	return nil
}

func (m *Mem) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("list:" + dir); err != nil {
		return nil, err
	}
	var names []string
	for name := range m.live {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll is a numbered no-op: Mem's namespace is flat, directories
// exist implicitly (but the failpoint still counts, so crash schedules
// cover it).
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.step("mkdir:" + dir)
}

func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("sync-dir:" + dir); err != nil {
		return err
	}
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			if _, ok := m.live[name]; !ok {
				delete(m.durable, name)
			}
		}
	}
	for name, n := range m.live {
		if filepath.Dir(name) == dir {
			m.durable[name] = n
		}
	}
	return nil
}

// --- File implementation -----------------------------------------------------

type memFile struct {
	fs     *Mem
	node   *memNode
	name   string
	gen    int
	off    int // read cursor
	woff   int // write offset
	closed bool
	rdonly bool
}

// check numbers the operation and validates the handle; fs.mu held.
func (f *memFile) check(op string) error {
	if err := f.fs.step(op + ":" + f.name); err != nil {
		return err
	}
	if f.gen != f.fs.gen {
		return ErrCrashed // handle predates the crash
	}
	if f.closed {
		return &fs.PathError{Op: op, Path: f.name, Err: fs.ErrClosed}
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("read"); err != nil {
		return 0, err
	}
	if f.off >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	opn := f.fs.ops // the number this write will take
	if err := f.check("write"); err != nil {
		return 0, err
	}
	if f.rdonly {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: fs.ErrPermission}
	}
	if f.fs.short[opn] {
		delete(f.fs.short, opn)
		k := 0
		if len(p) > 0 {
			k = f.fs.rng.Intn(len(p))
		}
		f.apply(p[:k])
		return k, fmt.Errorf("write:%s: %w (short write, %d of %d bytes)", f.name, ErrInjected, k, len(p))
	}
	f.apply(p)
	return len(p), nil
}

// apply lands p at the write offset and records it as unsynced; fs.mu held.
func (f *memFile) apply(p []byte) {
	f.node.data = put(f.node.data, f.woff, p)
	f.node.pending = append(f.node.pending, memWrite{off: f.woff, p: append([]byte(nil), p...)})
	f.woff += len(p)
}

// SeekWrite moves the write offset; like Name it is not a numbered
// operation (it makes no system call on a real filesystem).
func (f *memFile) SeekWrite(off int64) {
	f.fs.mu.Lock()
	f.woff = int(off)
	f.fs.mu.Unlock()
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("sync"); err != nil {
		return err
	}
	f.node.synced = append(f.node.synced[:0], f.node.data...)
	f.node.pending = nil
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("truncate"); err != nil {
		return err
	}
	if size < 0 || size > int64(len(f.node.data)) {
		return &fs.PathError{Op: "truncate", Path: f.name, Err: fs.ErrInvalid}
	}
	f.node.data = f.node.data[:size]
	if int64(len(f.node.synced)) > size {
		f.node.synced = f.node.synced[:size]
	}
	// Unsynced writes keep only their bytes below the cut.
	kept := f.node.pending[:0]
	for _, w := range f.node.pending {
		if int64(w.off) < size {
			w.p = w.p[:min(int64(len(w.p)), size-int64(w.off))]
			kept = append(kept, w)
		}
	}
	f.node.pending = kept
	if f.off > int(size) {
		f.off = int(size)
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("size"); err != nil {
		return 0, err
	}
	return int64(len(f.node.data)), nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("close"); err != nil {
		return err
	}
	f.closed = true
	return nil
}

func (f *memFile) Name() string { return f.name }
