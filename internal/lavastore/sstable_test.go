package lavastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

type kv struct{ key, rec []byte }

// seqEntries returns n entries with 8-byte ascending keys (step 2, so
// odd numbers are absent keys between them) whose records have the
// given lengths, cycled.
func seqEntries(n int, recLens ...int) []kv {
	out := make([]kv, n)
	for i := range out {
		rec := bytes.Repeat([]byte{byte('a' + i%26)}, recLens[i%len(recLens)])
		out[i] = kv{key: []byte(fmt.Sprintf("%08d", 2*i)), rec: rec}
	}
	return out
}

// writeTable runs entries through tableWriter into a fresh MemFS file
// and opens the result.
func writeTable(t testing.TB, entries []kv) *Table {
	t.Helper()
	return buildTable(t, func(f File) error {
		w := newTableWriter(f)
		for _, e := range entries {
			if err := w.Add(e.key, e.rec); err != nil {
				return err
			}
		}
		return w.Finish()
	})
}

func buildTable(t testing.TB, write func(File) error) *Table {
	t.Helper()
	fs := NewMemFS()
	f, _ := fs.Create("t.sst")
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	tbl, err := openTable(f, "t.sst")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// writeEvery16 is the table writer as it was before the index was cut
// by bytes: three writes per entry, one index entry per 16 entries. It
// is kept as the reference for "old tables still open".
func writeEvery16(f File, entries []kv) error {
	var off int64
	var index []byte
	bf := newBloomFilter(len(entries))
	for i, e := range entries {
		if i%16 == 0 {
			index = binary.AppendUvarint(index, uint64(len(e.key)))
			index = append(index, e.key...)
			index = binary.AppendUvarint(index, uint64(off))
		}
		hdr := binary.AppendUvarint(nil, uint64(len(e.key)))
		hdr = binary.AppendUvarint(hdr, uint64(len(e.rec)))
		for _, part := range [][]byte{hdr, e.key, e.rec} {
			n, _ := f.Write(part)
			off += int64(n)
		}
		bf.Add(e.key)
	}
	tail := binary.AppendUvarint(nil, uint64((len(entries)+15)/16))
	tail = append(tail, index...)
	bloomOff := off + int64(len(tail))
	bb := bf.Marshal()
	tail = binary.AppendUvarint(tail, uint64(len(bb)))
	tail = append(tail, bb...)
	for _, v := range []uint64{uint64(off), uint64(bloomOff), uint64(len(entries)), sstMagic} {
		tail = binary.LittleEndian.AppendUint64(tail, v)
	}
	_, err := f.Write(tail)
	return err
}

// checkServes holds a table to its entries: every key is served with
// its record, absent keys before, between and after are not, a full
// iteration and a seek to every key and every gap land where they
// should. Every Get borrows one buffer, as the engine's reads share
// pooled ones; a run too large for it is read into one of its own.
func checkServes(t *testing.T, tbl *Table, entries []kv) {
	t.Helper()
	if tbl.Count() != len(entries) {
		t.Fatalf("Count = %d, want %d", tbl.Count(), len(entries))
	}
	buf := make([]byte, runBufSize)
	for i, e := range entries {
		rec, found, _, err := tbl.Get(e.key, buf)
		if err != nil || !found || !bytes.Equal(rec, e.rec) {
			t.Fatalf("Get(entry %d): found=%v err=%v, %d record bytes want %d", i, found, err, len(rec), len(e.rec))
		}
		gap := append(append([]byte(nil), e.key...), 0) // sorts right after e.key
		if _, found, _, err := tbl.Get(gap, buf); found || err != nil {
			t.Fatalf("Get(gap after entry %d): found=%v err=%v", i, found, err)
		}
		it := tbl.iterator()
		if !it.seek(e.key) || !bytes.Equal(it.Key(), e.key) || !bytes.Equal(it.Rec(), e.rec) {
			t.Fatalf("seek(entry %d) landed on %q (err %v)", i, it.Key(), it.Err())
		}
		if ok := it.seek(gap); ok != (i+1 < len(entries)) || (ok && !bytes.Equal(it.Key(), entries[i+1].key)) {
			t.Fatalf("seek(gap after entry %d) = %v on %q (err %v)", i, ok, it.Key(), it.Err())
		}
	}
	if _, found, _, err := tbl.Get([]byte("\x00"), buf); found || err != nil {
		t.Fatalf("Get(before first): found=%v err=%v", found, err)
	}
	it := tbl.iterator()
	for i, e := range entries {
		if !it.Next() || !bytes.Equal(it.Key(), e.key) || !bytes.Equal(it.Rec(), e.rec) {
			t.Fatalf("iterator at entry %d: key %q err %v", i, it.Key(), it.Err())
		}
	}
	if it.Next() || it.Err() != nil {
		t.Fatalf("iterator past the end: key %q err %v", it.Key(), it.Err())
	}
}

// runShape returns the longest index run of tbl in entries and in
// bytes, walking the table once.
func runShape(t *testing.T, tbl *Table) (maxEntries int, maxBytes int64) {
	t.Helper()
	it := tbl.iterator()
	run, entries := 0, 0
	for off := int64(0); it.Next(); off = it.off {
		if run+1 < len(tbl.index) && off == tbl.index[run+1].off {
			run, entries = run+1, 0
		}
		entries++
		maxEntries = max(maxEntries, entries)
		maxBytes = max(maxBytes, it.off-tbl.index[run].off)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return maxEntries, maxBytes
}

func TestTableRoundTrip(t *testing.T) {
	// 1 + 2 + 8 + 1013 = 1024 bytes an entry: 64 of them end exactly on
	// the first block edge.
	onEdge := seqEntries(200, 1013)
	if hdr := len(binary.AppendUvarint(binary.AppendUvarint(nil, 8), 1013)); (hdr+8+1013)*64 != ioBlockSize {
		t.Fatalf("edge case no longer lands on the block edge: header %d bytes", hdr)
	}
	cases := []struct {
		name    string
		entries []kv
		// longest index run allowed, in entries and in bytes
		maxRunEntries int
		maxRunBytes   int64
	}{
		{"one entry", seqEntries(1, 10), 1, 1 << 10},
		{"128 B values keep the 16-entry run", seqEntries(1000, 128), indexInterval, indexBytes},
		{"1 KiB values are cut by bytes", seqEntries(300, 1024), 4, indexBytes + 1100},
		{"entry ends on a block edge", onEdge, 4, indexBytes + 1100},
		{"entry larger than a block", seqEntries(40, 100, 3*ioBlockSize+5, 2000, 7), 4, indexBytes + 3*ioBlockSize + 30},
		{"empty records", seqEntries(100, 0), indexInterval, indexBytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := writeTable(t, tc.entries)
			checkServes(t, tbl, tc.entries)
			n, b := runShape(t, tbl)
			if n > tc.maxRunEntries || b > tc.maxRunBytes {
				t.Errorf("longest index run: %d entries, %d bytes; want <= %d and <= %d", n, b, tc.maxRunEntries, tc.maxRunBytes)
			}
			if tc.maxRunEntries == indexInterval && len(tc.entries) >= indexInterval && n != indexInterval {
				t.Errorf("longest index run holds %d entries, want the full %d", n, indexInterval)
			}
		})
	}

	t.Run("a table indexed by the every-16 rule still opens and serves", func(t *testing.T) {
		entries := seqEntries(300, 1024, 10)
		tbl := buildTable(t, func(f File) error { return writeEvery16(f, entries) })
		checkServes(t, tbl, entries)
		if n, _ := runShape(t, tbl); n != 16 {
			t.Fatalf("reference writer cut runs of %d entries, want 16", n)
		}
	})

	t.Run("the byte format did not move", func(t *testing.T) {
		// Same entries, small enough that both rules cut the same index:
		// the new writer's file equals the reference writer's.
		entries := seqEntries(100, 128, 0, 40)
		a, b := NewMemFS(), NewMemFS()
		fa, _ := a.Create("t")
		fb, _ := b.Create("t")
		w := newTableWriter(fa)
		for _, e := range entries {
			w.Add(e.key, e.rec)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := writeEvery16(fb, entries); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readAll(t, fa), readAll(t, fb)) {
			t.Fatal("tableWriter's bytes differ from the reference writer's")
		}
	})
}

func readAll(t *testing.T, f File) []byte {
	t.Helper()
	sz, _ := f.Size()
	buf := make([]byte, sz)
	if err := readFullAt(f, buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestIteratorEntrySurvivesNextFill: the scan merge reads a record
// after advancing the iterator that produced it, so Key and Rec must
// stay intact across one more Next — including a Next that refills the
// read-ahead block.
func TestIteratorEntrySurvivesNextFill(t *testing.T) {
	entries := seqEntries(400, 1024, 70, ioBlockSize+9)
	tbl := writeTable(t, entries)
	it := tbl.iterator()
	fills := 0
	var key, rec []byte // the entry before the current one
	var block int
	for i := 0; it.Next(); i++ {
		if i > 0 {
			if it.cur != block {
				fills++
			}
			if !bytes.Equal(key, entries[i-1].key) || !bytes.Equal(rec, entries[i-1].rec) {
				t.Fatalf("entry %d changed under the following Next (refilled: %v)", i-1, it.cur != block)
			}
		}
		key, rec, block = it.Key(), it.Rec(), it.cur
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if fills < 3 {
		t.Fatalf("only %d Nexts crossed a block fill; the table is too small to test anything", fills)
	}
}

// TestIteratorTruncatedDataRegion: a data region that ends inside an
// entry is corruption the iterator reports, not a clean end.
func TestIteratorTruncatedDataRegion(t *testing.T) {
	for _, cut := range []int64{1, 500, 1030} {
		tbl := *writeTable(t, seqEntries(100, 1024))
		tbl.dataEnd -= cut
		it := tbl.iterator()
		n := 0
		for it.Next() {
			n++
		}
		if !errors.Is(it.Err(), errBadTable) || n != 99 {
			t.Errorf("cut %d: %d entries then err = %v, want 99 and errBadTable", cut, n, it.Err())
		}
	}
}
