package main

import (
	"strings"
	"sync"
	"sync/atomic"

	"abase/internal/lavastore"
)

// countingFS wraps a lavastore.FS and counts what the engines ask of
// it. It is passed as ClusterConfig.FS in the traced run only, so the
// untraced numbers carry no instrumentation.
type countingFS struct {
	inner lavastore.FS

	walWriteBytes atomic.Int64
	sstWriteBytes atomic.Int64
	writeCalls    atomic.Int64
	readBytes     atomic.Int64
	readCalls     atomic.Int64
	syncs         atomic.Int64
	created       atomic.Int64
	removed       atomic.Int64
	liveBytes     atomic.Int64

	mu    sync.Mutex
	sizes map[string]*atomic.Int64 // live files, by name
}

func newCountingFS(inner lavastore.FS) *countingFS {
	return &countingFS{inner: inner, sizes: make(map[string]*atomic.Int64)}
}

// fsCounts is a point-in-time copy of the counters.
type fsCounts struct {
	walWriteBytes, sstWriteBytes, writeCalls int64
	readBytes, readCalls                     int64
	syncs, created, removed, liveBytes       int64
}

func (c *countingFS) snapshot() fsCounts {
	return fsCounts{
		walWriteBytes: c.walWriteBytes.Load(), sstWriteBytes: c.sstWriteBytes.Load(),
		writeCalls: c.writeCalls.Load(), readBytes: c.readBytes.Load(), readCalls: c.readCalls.Load(),
		syncs: c.syncs.Load(), created: c.created.Load(), removed: c.removed.Load(),
		liveBytes: c.liveBytes.Load(),
	}
}

// Create implements lavastore.FS.
func (c *countingFS) Create(name string) (lavastore.File, error) {
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	c.created.Add(1)
	size := new(atomic.Int64)
	c.mu.Lock()
	if old, ok := c.sizes[name]; ok { // Create truncates
		c.liveBytes.Add(-old.Load())
	}
	c.sizes[name] = size
	c.mu.Unlock()
	return &countingFile{File: f, fs: c, size: size, wal: strings.HasSuffix(name, ".wal")}, nil
}

// Open implements lavastore.FS.
func (c *countingFS) Open(name string) (lavastore.File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, size: new(atomic.Int64), wal: strings.HasSuffix(name, ".wal")}, nil
}

// Remove implements lavastore.FS.
func (c *countingFS) Remove(name string) error {
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.removed.Add(1)
	c.mu.Lock()
	if size, ok := c.sizes[name]; ok {
		c.liveBytes.Add(-size.Load())
		delete(c.sizes, name)
	}
	c.mu.Unlock()
	return nil
}

// Rename implements lavastore.FS.
func (c *countingFS) Rename(oldname, newname string) error {
	if err := c.inner.Rename(oldname, newname); err != nil {
		return err
	}
	c.mu.Lock()
	if old, ok := c.sizes[newname]; ok {
		c.liveBytes.Add(-old.Load())
	}
	if size, ok := c.sizes[oldname]; ok {
		c.sizes[newname] = size
		delete(c.sizes, oldname)
	}
	c.mu.Unlock()
	return nil
}

// List implements lavastore.FS.
func (c *countingFS) List(dir string) ([]string, error) { return c.inner.List(dir) }

// countingFile counts one file's traffic into its countingFS.
type countingFile struct {
	lavastore.File
	fs   *countingFS
	size *atomic.Int64
	wal  bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeCalls.Add(1)
	if f.wal {
		f.fs.walWriteBytes.Add(int64(n))
	} else {
		f.fs.sstWriteBytes.Add(int64(n))
	}
	f.size.Add(int64(n))
	f.fs.liveBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.readCalls.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
