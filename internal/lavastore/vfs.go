package lavastore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the random-access file abstraction SSTables are written to
// and read from.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes buffered data to stable storage.
	Sync() error
	// Size returns the current file length in bytes.
	Size() (int64, error)
}

// FS abstracts the filesystem so the engine can run on the OS
// filesystem (production, crash recovery tests) or fully in memory
// (simulation, fast tests).
type FS interface {
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// List returns the names of all files in the directory, sorted.
	List(dir string) ([]string, error)
	// Rename atomically renames a file.
	Rename(oldname, newname string) error
}

// --- OS filesystem ---

// OSFS is an FS backed by the operating system.
type OSFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// --- In-memory filesystem ---

// MemFS is an FS held entirely in memory. Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

const (
	// memChunkSize is the fixed unit a memFile grows by. An append
	// copies only its own bytes into the tail chunk, so a file never
	// holds more than one chunk of slack and is never moved as it grows.
	memChunkSize = 256 << 10
	// memFirstChunkMin is the capacity a file's first chunk starts at.
	memFirstChunkMin = 512
)

// memFile is a file held as fixed-size chunks: chunk i covers bytes
// [i*memChunkSize, (i+1)*memChunkSize), and every chunk but the last is
// full. Only the first chunk starts small and grows geometrically up to
// memChunkSize, so the many tiny files of tests and the soak stay tiny.
//
// A memFile removed from its MemFS keeps its bytes for as long as an
// open handle references it (unlink semantics): readers of a table
// that compaction has already deleted finish on intact data. Chunks
// are therefore never recycled into other files.
type memFile struct {
	mu     sync.RWMutex
	chunks [][]byte
	size   int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for rest := p; len(rest) > 0; {
		f.makeRoom(len(rest))
		tail := f.chunks[len(f.chunks)-1]
		n := copy(tail[len(tail):cap(tail)], rest)
		f.chunks[len(f.chunks)-1] = tail[:len(tail)+n]
		rest = rest[n:]
	}
	f.size += int64(len(p))
	return len(p), nil
}

// makeRoom leaves the last chunk with at least one free byte ahead of
// a write of want more bytes, by growing the first chunk or starting a
// new one.
// +locked:f.mu
func (f *memFile) makeRoom(want int) {
	n := len(f.chunks)
	if n == 0 {
		f.chunks = append(f.chunks, make([]byte, 0, firstChunkCap(memFirstChunkMin, want)))
		return
	}
	tail := f.chunks[n-1]
	switch {
	case len(tail) < cap(tail):
	case n == 1 && cap(tail) < memChunkSize:
		// The first chunk is the only one ever copied, and only while
		// the whole file is smaller than one chunk.
		grown := make([]byte, len(tail), firstChunkCap(2*cap(tail), len(tail)+want))
		copy(grown, tail)
		f.chunks[0] = grown
	default:
		f.chunks = append(f.chunks, make([]byte, 0, memChunkSize))
	}
}

// firstChunkCap sizes the first chunk: at least floor and need, at
// most one full chunk.
func firstChunkCap(floor, need int) int {
	return min(max(floor, need), memChunkSize)
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for n < len(p) && off < f.size {
		c := copy(p[n:], f.chunks[off/memChunkSize][off%memChunkSize:])
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size, nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return f, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("lavastore: memfs: %s: %w", name, os.ErrNotExist)
	}
	return f, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("lavastore: memfs: %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("lavastore: memfs: %s: %w", oldname, os.ErrNotExist)
	}
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir
	if prefix != "" && !bytes.HasSuffix([]byte(prefix), []byte("/")) {
		prefix += "/"
	}
	var names []string
	for name := range m.files {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			rest := name[len(prefix):]
			if !bytes.ContainsRune([]byte(rest), '/') {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}
