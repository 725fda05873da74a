package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
)

// checkAgainstModel compares f with the flat byte slice it should
// equal: Size, a whole read, reads around every chunk edge, and reads
// that run off the end.
func checkAgainstModel(t *testing.T, f File, model []byte) {
	t.Helper()
	if sz, err := f.Size(); err != nil || sz != int64(len(model)) {
		t.Fatalf("Size = %d, %v; model holds %d", sz, err, len(model))
	}
	readAt := func(off int64, n int) {
		t.Helper()
		want := []byte{}
		if off < int64(len(model)) {
			want = model[off:min(off+int64(n), int64(len(model)))]
		}
		buf := make([]byte, n)
		got, err := f.ReadAt(buf, off)
		if got != len(want) || !bytes.Equal(buf[:got], want) {
			t.Fatalf("ReadAt(%d bytes @%d): got %d bytes, want %d, or the bytes differ", n, off, got, len(want))
		}
		wantErr := error(nil)
		if got < n {
			wantErr = io.EOF
		}
		if err != wantErr {
			t.Fatalf("ReadAt(%d bytes @%d) read %d: err = %v, want %v", n, off, got, err, wantErr)
		}
	}
	readAt(0, len(model))
	readAt(0, len(model)+7) // short read: n, io.EOF
	readAt(int64(len(model)), 1)
	for edge := int64(0); edge <= int64(len(model))+memChunkSize; edge += memChunkSize {
		for _, off := range []int64{edge - 1, edge, edge + 1} {
			if off < 0 {
				continue
			}
			for _, n := range []int{1, 3, memChunkSize + 2} {
				readAt(off, n)
			}
		}
	}
}

// TestMemFSMatchesFlatModel: seeded appends of 1 B – 1 MiB leave a
// chunked file byte-identical to the flat slice that took the same
// appends, at every chunk edge and under short reads.
func TestMemFSMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	fs := NewMemFS()
	f, err := fs.Create("d/f")
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	checkAgainstModel(t, f, model)
	sizes := []int{1, memFirstChunkMin, 1, memChunkSize - memFirstChunkMin - 2, 1, 1, memChunkSize, 1 << 20, 3}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, 1+rng.Intn(1<<uint(rng.Intn(21))))
	}
	for _, n := range sizes {
		p := make([]byte, n)
		rng.Read(p)
		if got, err := f.Write(p); got != n || err != nil {
			t.Fatalf("Write(%d bytes) = %d, %v", n, got, err)
		}
		model = append(model, p...)
		checkAgainstModel(t, f, model)
	}

	// A second handle sees the same bytes; a rename moves them.
	g, err := fs.Open("d/f")
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, g, model)
	if err := fs.Rename("d/f", "d/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("d/f"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open(old name) err = %v, want ErrNotExist", err)
	}
	if g, err = fs.Open("d/g"); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, g, model)

	// Unlink semantics: an open handle outlives Remove with its bytes
	// intact, even while a new file of the same name fills up.
	if err := fs.Remove("d/g"); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List("d"); len(names) != 0 {
		t.Fatalf("List after Remove = %v", names)
	}
	h, _ := fs.Create("d/g")
	h.Write(bytes.Repeat([]byte{0xEE}, 2*memChunkSize))
	checkAgainstModel(t, g, model)
}

// TestMemFSAppendCostsItsOwnBytes: growing a file never moves what it
// already holds — every chunk but the first stays where it was first
// allocated, and slack never exceeds one chunk.
func TestMemFSAppendCostsItsOwnBytes(t *testing.T) {
	h, _ := NewMemFS().Create("f")
	f := h.(*memHandle).f
	var firstByte []*byte
	for i := 0; i < 5*memChunkSize/1000; i++ {
		h.Write(make([]byte, 1000))
		for c := len(firstByte); c < len(f.chunks); c++ {
			firstByte = append(firstByte, &f.chunks[c][0])
		}
		held := 0
		for c, chunk := range f.chunks {
			held += cap(chunk)
			if c > 0 && &chunk[0] != firstByte[c] {
				t.Fatalf("chunk %d was reallocated at size %d", c, f.size)
			}
		}
		if slack := int64(held) - f.size; slack > memChunkSize {
			t.Fatalf("slack %d bytes at size %d exceeds one chunk", slack, f.size)
		}
	}
	if len(f.chunks) != 5 {
		t.Fatalf("%d chunks for %d bytes, want 5", len(f.chunks), f.size)
	}
}

// memFileOf returns the memFile behind a MemFS handle.
func memFileOf(h File) *memFile { return h.(*memHandle).f }

// freeChunks is the length of m's free list.
func freeChunks(m *MemFS) int {
	m.freeMu.Lock()
	defer m.freeMu.Unlock()
	return len(m.free)
}

// mustCreate creates name on m holding n bytes of b.
func mustCreate(t *testing.T, m *MemFS, name string, b byte, n int) File {
	t.Helper()
	h, err := m.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(bytes.Repeat([]byte{b}, n)); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMemFSHandles: each Create and Open is a handle of its own that
// refuses every call once closed, as an *os.File does; a file whose
// name is gone lives until its last handle closes, then gives its
// full-size chunks to the free list, where the next file to grow takes
// them instead of making new ones.
func TestMemFSHandles(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, m *MemFS)
	}{
		{"calls after Close, and a second Close", func(t *testing.T, m *MemFS) {
			h := mustCreate(t, m, "f", 1, 10)
			g, err := m.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			_, rerr := h.ReadAt(make([]byte, 1), 0)
			_, werr := h.Write([]byte{1})
			_, serr := h.Size()
			for what, err := range map[string]error{
				"ReadAt": rerr, "Write": werr, "Size": serr, "Sync": h.Sync(), "second Close": h.Close(),
			} {
				if !errors.Is(err, os.ErrClosed) {
					t.Errorf("%s after Close: err = %v, want os.ErrClosed", what, err)
				}
			}
			checkAgainstModel(t, g, bytes.Repeat([]byte{1}, 10)) // the other handle is open
		}},
		{"a removed file lives until its last Close", func(t *testing.T, m *MemFS) {
			h := mustCreate(t, m, "f", 2, 2*memChunkSize+7)
			g, _ := m.Open("f")
			h.Close()
			if err := m.Remove("f"); err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(t, g, bytes.Repeat([]byte{2}, 2*memChunkSize+7))
			if n := freeChunks(m); n != 0 {
				t.Fatalf("%d chunks freed while a handle is open", n)
			}
			f := memFileOf(g)
			g.Close()
			if !f.dead || f.size != 0 || f.chunks != nil {
				t.Fatalf("after the last Close: dead %v, size %d, %d chunks", f.dead, f.size, len(f.chunks))
			}
			if _, err := f.readAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("a late read of a dead file: err = %v, want os.ErrClosed", err)
			}
			if n := freeChunks(m); n != 3 { // the partial third chunk is full-size too
				t.Fatalf("%d chunks freed, want the file's 3", n)
			}
		}},
		{"Create over a name unlinks the old file", func(t *testing.T, m *MemFS) {
			old := mustCreate(t, m, "f", 3, 2*memChunkSize)
			nu := mustCreate(t, m, "f", 4, 1)
			checkAgainstModel(t, old, bytes.Repeat([]byte{3}, 2*memChunkSize))
			made := m.made
			old.Close()
			if n := freeChunks(m); n != 2 {
				t.Fatalf("%d chunks freed, want the old file's 2", n)
			}
			nu.Write(bytes.Repeat([]byte{4}, 2*memChunkSize-1))
			if m.made != made || freeChunks(m) != 0 {
				t.Fatalf("growing the new file made %d chunks with %d free", m.made-made, freeChunks(m))
			}
			checkAgainstModel(t, nu, bytes.Repeat([]byte{4}, 2*memChunkSize))
		}},
		{"Rename over a name unlinks the old file", func(t *testing.T, m *MemFS) {
			old := mustCreate(t, m, "b", 5, memChunkSize)
			src := mustCreate(t, m, "a", 6, 3)
			if err := m.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(t, old, bytes.Repeat([]byte{5}, memChunkSize))
			old.Close()
			if n := freeChunks(m); n != 1 {
				t.Fatalf("%d chunks freed, want the old file's 1", n)
			}
			g, err := m.Open("b")
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(t, g, []byte{6, 6, 6})
			src.Close()
			if f := memFileOf(g); f.dead {
				t.Fatal("the renamed file died with a handle and a name")
			}
		}},
		{"a reused chunk's old bytes stay past the new file's end", func(t *testing.T, m *MemFS) {
			mustCreate(t, m, "f", 7, 2*memChunkSize).Close()
			m.Remove("f")
			h := mustCreate(t, m, "g", 8, memChunkSize+5) // a full first chunk and a reused second
			if freeChunks(m) != 0 {
				t.Fatal("the new file did not take the freed chunks")
			}
			checkAgainstModel(t, h, bytes.Repeat([]byte{8}, memChunkSize+5))
			p := bytes.Repeat([]byte{0}, 100)
			if n, err := h.ReadAt(p, memChunkSize); n != 5 || err != io.EOF || !bytes.Equal(p, append(bytes.Repeat([]byte{8}, 5), make([]byte, 95)...)) {
				t.Fatalf("ReadAt past the end: %d bytes, %v, %v", n, err, p[:8])
			}
		}},
		{"the free list holds at most memFreeChunks", func(t *testing.T, m *MemFS) {
			mustCreate(t, m, "f", 9, (memFreeChunks+1)*memChunkSize).Close()
			m.Remove("f")
			if n := freeChunks(m); n != memFreeChunks {
				t.Fatalf("%d chunks free, want %d", n, memFreeChunks)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewMemFS()) })
	}
}

// TestMemFSReadRacesLastClose: a read that passed its handle's closed
// check just before the last Close, and so reads the file itself while
// the file is removed and freed and new files reuse its chunks, reads
// the file's own bytes or gets os.ErrClosed — never another file's
// bytes. Run it under -race.
func TestMemFSReadRacesLastClose(t *testing.T) {
	m := NewMemFS()
	for round := 1; round <= 20; round++ {
		mine := byte(round)
		mustCreate(t, m, "f", mine, 2*memChunkSize).Close()
		g, err := m.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		f := memFileOf(g)
		done := make(chan error)
		go func() {
			p := make([]byte, 4096)
			for off := int64(0); ; off = (off + 4099) % (2*memChunkSize - 4096) {
				if _, err := f.readAt(p, off); err != nil {
					done <- err
					return
				}
				if bytes.Count(p, []byte{mine}) != len(p) {
					done <- fmt.Errorf("read another file's bytes at %d", off)
					return
				}
			}
		}()
		m.Remove("f")
		g.Close()
		mustCreate(t, m, "g", 0xFF, 2*memChunkSize) // reuses f's chunks
		if err := <-done; !errors.Is(err, os.ErrClosed) {
			t.Fatalf("round %d: %v", round, err)
		}
		m.Remove("g")
	}
}
