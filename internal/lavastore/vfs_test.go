package lavastore

import (
	"bytes"
	"errors"
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
	f := &memFile{}
	var firstByte []*byte
	for i := 0; i < 5*memChunkSize/1000; i++ {
		f.Write(make([]byte, 1000))
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
