package main

import (
	"sync/atomic"

	"cssidx/internal/failfs"
)

// countFS wraps the production filesystem and counts what the durable store
// asks of it.  Only the traced pass opens its store through it.
type countFS struct {
	failfs.FS
	writes, writeBytes, fsyncs, renames atomic.Int64
}

func newCountFS() *countFS { return &countFS{FS: failfs.OS} }

func (c *countFS) wrap(f failfs.File, err error) (failfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Create(name string) (failfs.File, error) { return c.wrap(c.FS.Create(name)) }
func (c *countFS) CreateTemp(dir, pattern string) (failfs.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}
func (c *countFS) Open(name string) (failfs.File, error)       { return c.wrap(c.FS.Open(name)) }
func (c *countFS) OpenAppend(name string) (failfs.File, error) { return c.wrap(c.FS.OpenAppend(name)) }

func (c *countFS) Rename(oldname, newname string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldname, newname)
}

func (c *countFS) SyncDir(dir string) error {
	c.fsyncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countFile struct {
	failfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	f.fs.fsyncs.Add(1)
	return f.File.Sync()
}
