package failfs

import (
	"os"

	"cssidx/internal/telemetry"
)

// Per-operation counters over the production filesystem: what the engine
// actually asks of the OS (how many fsyncs a workload's durability policy
// costs, how write-heavy a checkpoint is).  One atomic load each while
// telemetry is off.
var (
	ctrOpen     = telemetry.C(`failfs_ops_total{op="open"}`)
	ctrCreate   = telemetry.C(`failfs_ops_total{op="create"}`)
	ctrRead     = telemetry.C(`failfs_ops_total{op="read"}`)
	ctrWrite    = telemetry.C(`failfs_ops_total{op="write"}`)
	ctrSync     = telemetry.C(`failfs_ops_total{op="sync"}`)
	ctrSyncDir  = telemetry.C(`failfs_ops_total{op="syncdir"}`)
	ctrRename   = telemetry.C(`failfs_ops_total{op="rename"}`)
	ctrExchange = telemetry.C(`failfs_ops_total{op="exchange"}`)
	ctrRemove   = telemetry.C(`failfs_ops_total{op="remove"}`)
)

// OS is the production filesystem: a veneer over the os package.  Every
// method maps to the obvious syscall (a Write is a pwrite at the file's
// write offset; Exchange is renameat2(RENAME_EXCHANGE) on Linux); SyncDir
// opens the directory and fsyncs it, which is how a rename or create is
// made crash-durable on POSIX systems.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	ctrCreate.Inc()
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	ctrCreate.Inc()
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (osFS) Open(name string) (File, error) {
	ctrOpen.Inc()
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (osFS) OpenAppend(name string) (File, error) {
	ctrOpen.Inc()
	// No O_APPEND: it would send every pwrite to the end of the file.
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &osFile{f: f, woff: st.Size()}, nil
}

func (osFS) Rename(oldname, newname string) error {
	ctrRename.Inc()
	return os.Rename(oldname, newname)
}

func (osFS) Exchange(a, b string) error {
	ctrExchange.Inc()
	return exchange(a, b)
}

func (osFS) Remove(name string) error {
	ctrRemove.Inc()
	return os.Remove(name)
}

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	ctrSyncDir.Inc()
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// osFile reads through the descriptor's own offset and writes with pwrite
// at woff, so replaying a file and writing into it do not move each other.
type osFile struct {
	f    *os.File
	woff int64
}

func (o *osFile) Read(p []byte) (int, error) {
	ctrRead.Inc()
	return o.f.Read(p)
}

func (o *osFile) Write(p []byte) (int, error) {
	ctrWrite.Inc()
	n, err := o.f.WriteAt(p, o.woff)
	o.woff += int64(n)
	return n, err
}

func (o *osFile) SeekWrite(off int64) { o.woff = off }

func (o *osFile) Close() error { return o.f.Close() }

func (o *osFile) Sync() error {
	ctrSync.Inc()
	return o.f.Sync()
}
func (o *osFile) Truncate(size int64) error { return o.f.Truncate(size) }
func (o *osFile) Name() string              { return o.f.Name() }

func (o *osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
