package lavastore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
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
//
// Each Create and Open returns its own handle. A file whose name is
// gone (Remove, or a Create or Rename over it) and whose last handle is
// closed gives its full-size chunks to the MemFS's free list, and the
// next file to grow takes them from there before making new ones.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile

	freeMu sync.Mutex
	free   [][]byte // full-size chunks of dead files, len 0
	made   int      // full-size chunks ever made
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
	// memFreeChunks caps a MemFS's free list at 256 chunks, 64 MiB, so
	// an idle MemFS keeps at most that much; chunks freed beyond it go
	// to the collector. With this cap, the bench's churn workload,
	// whose flushes and compactions delete WAL segments and tables
	// throughout, peaked at 571 MB RSS where fresh chunks took 648 MB
	// (medians of ten alternating pairs on a 2-core box).
	memFreeChunks = 256
)

// memFile is a file held as fixed-size chunks: chunk i covers bytes
// [i*memChunkSize, (i+1)*memChunkSize), and every chunk but the last is
// full. Only the first chunk starts small and grows geometrically up to
// memChunkSize, so the many tiny files of tests and the soak stay tiny.
//
// A memFile removed from its MemFS keeps its bytes for as long as an
// open handle references it (unlink semantics): readers of a table
// that compaction has already deleted finish on intact data. Once it
// has neither a name nor an open handle, it dies: under its write lock
// its full-size chunks go to the MemFS's free list and its size drops
// to 0, so a read that races the last Close gets os.ErrClosed, never
// the bytes of the file that reuses a chunk. A reused chunk keeps its
// old bytes, but no read goes past a file's size, and a file's size
// only covers bytes it wrote itself.
type memFile struct {
	fs     *MemFS
	mu     sync.RWMutex
	chunks [][]byte
	size   int64
	dead   bool
	// Guarded by fs.mu.
	handles int  // open handles
	linked  bool // a name points to the file
}

// memHandle is one open handle on a memFile. Like an *os.File, it
// refuses every call once closed.
type memHandle struct {
	f      *memFile
	closed atomic.Bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.closed.Load() {
		return 0, os.ErrClosed
	}
	return h.f.write(p)
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed.Load() {
		return 0, os.ErrClosed
	}
	return h.f.readAt(p, off)
}

func (h *memHandle) Size() (int64, error) {
	if h.closed.Load() {
		return 0, os.ErrClosed
	}
	f := h.f
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.dead {
		return 0, os.ErrClosed
	}
	return f.size, nil
}

func (h *memHandle) Sync() error {
	if h.closed.Load() {
		return os.ErrClosed
	}
	return nil
}

// Close releases the handle; the last one on an unlinked file frees it.
// A second Close returns os.ErrClosed.
func (h *memHandle) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return os.ErrClosed
	}
	m := h.f.fs
	m.mu.Lock()
	h.f.handles--
	var dead *memFile
	if h.f.handles == 0 && !h.f.linked {
		dead = h.f
	}
	m.mu.Unlock()
	m.release(dead)
	return nil
}

func (f *memFile) write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return 0, os.ErrClosed
	}
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
		f.chunks = append(f.chunks, f.fs.chunk(firstChunkCap(memFirstChunkMin, want)))
		return
	}
	tail := f.chunks[n-1]
	switch {
	case len(tail) < cap(tail):
	case n == 1 && cap(tail) < memChunkSize:
		// The first chunk is the only one ever copied, and only while
		// the whole file is smaller than one chunk.
		grown := f.fs.chunk(firstChunkCap(2*cap(tail), len(tail)+want))[:len(tail)]
		copy(grown, tail)
		f.chunks[0] = grown
	default:
		f.chunks = append(f.chunks, f.fs.chunk(memChunkSize))
	}
}

// firstChunkCap sizes the first chunk: at least floor and need, at
// most one full chunk.
func firstChunkCap(floor, need int) int {
	return min(max(floor, need), memChunkSize)
}

// chunk returns an empty chunk of capacity c: a full-size one from the
// free list when it has one, else a new one.
func (m *MemFS) chunk(c int) []byte {
	if c < memChunkSize {
		return make([]byte, 0, c)
	}
	m.freeMu.Lock()
	defer m.freeMu.Unlock()
	if n := len(m.free); n > 0 {
		b := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return b
	}
	m.made++
	return make([]byte, 0, memChunkSize)
}

// release frees a file left with neither a name nor an open handle
// (nil: none): under its write lock, its full-size chunks go to the
// free list, up to memFreeChunks, and it is marked dead. The call that
// took a file's last reference under m.mu passes it here, once, after
// releasing m.mu.
func (m *MemFS) release(f *memFile) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m.freeMu.Lock()
	for _, c := range f.chunks {
		if cap(c) == memChunkSize && len(m.free) < memFreeChunks {
			m.free = append(m.free, c[:0])
		}
	}
	m.freeMu.Unlock()
	f.chunks, f.size, f.dead = nil, 0, true
}

func (f *memFile) readAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.dead {
		return 0, os.ErrClosed
	}
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

// openLocked returns a new handle on f.
// +locked:m.mu
func (m *MemFS) openLocked(f *memFile) *memHandle {
	f.handles++
	return &memHandle{f: f}
}

// unlinkLocked drops name's link to its file, if it has one, and
// returns that file if it is left with no open handle, for the caller
// to release once m.mu is released.
// +locked:m.mu
func (m *MemFS) unlinkLocked(name string) (dead *memFile) {
	f, ok := m.files[name]
	if !ok {
		return nil
	}
	delete(m.files, name)
	f.linked = false
	if f.handles == 0 {
		return f
	}
	return nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	dead := m.unlinkLocked(name)
	f := &memFile{fs: m, linked: true}
	m.files[name] = f
	h := m.openLocked(f)
	m.mu.Unlock()
	m.release(dead)
	return h, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("lavastore: memfs: %s: %w", name, os.ErrNotExist)
	}
	return m.openLocked(f), nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	_, ok := m.files[name]
	dead := m.unlinkLocked(name)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("lavastore: memfs: %s: %w", name, os.ErrNotExist)
	}
	m.release(dead)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	f, ok := m.files[oldname]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("lavastore: memfs: %s: %w", oldname, os.ErrNotExist)
	}
	var dead *memFile
	if newname != oldname {
		dead = m.unlinkLocked(newname)
		delete(m.files, oldname)
		m.files[newname] = f
	}
	m.mu.Unlock()
	m.release(dead)
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
