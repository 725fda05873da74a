package lavastore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frameTwoCopies is the WAL framing as it was before the payload was
// encoded in place: build the payload, then copy it behind its header.
// Kept as the reference the single-copy framing must equal byte for
// byte.
func frameTwoCopies(dst, key, rec []byte) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(key)))
	payload = append(payload, key...)
	payload = append(payload, rec...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	return append(append(dst, hdr[:]...), payload...)
}

// TestWALFramingGolden pins the log's bytes on disk: one literal
// record, and Append/AppendMany against the reference framing for
// empty and multi-byte-varint keys.
func TestWALFramingGolden(t *testing.T) {
	literal := []byte{0x40, 0xd5, 0xec, 0xc1, 3, 0, 0, 0, 1, 'k', 'v'}
	if got := frameTwoCopies(nil, []byte("k"), []byte("v")); !bytes.Equal(got, literal) {
		t.Fatalf("reference framing = %x, want %x", got, literal)
	}

	keys := [][]byte{[]byte("k"), {}, bytes.Repeat([]byte("K"), 300), []byte("last")}
	recs := [][]byte{[]byte("v"), []byte("only a record"), bytes.Repeat([]byte("r"), 5000), {}}
	var want []byte
	for i := range keys {
		want = frameTwoCopies(want, keys[i], recs[i])
	}
	want = append(want, want...) // the same four again, as one batch

	f, _ := NewMemFS().Create("w.wal")
	w := newWALWriter(f)
	for i := range keys {
		if err := w.Append(keys[i], recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendMany(keys, recs); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != int64(len(want)) {
		t.Fatalf("log holds %d bytes, want %d", sz, len(want))
	}
	got := make([]byte, len(want))
	if err := readFullAt(f, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("log bytes differ from the reference framing")
	}

	n := 0
	err := replayWAL(f, func(key, rec []byte) error {
		if i := n % len(keys); !bytes.Equal(key, keys[i]) || !bytes.Equal(rec, recs[i]) {
			t.Errorf("replayed record %d differs from what was appended", n)
		}
		n++
		return nil
	})
	if err != nil || n != 2*len(keys) {
		t.Fatalf("replayed %d records, err %v; want %d", n, err, 2*len(keys))
	}
}
