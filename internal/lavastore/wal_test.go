package lavastore

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// TestReplayWALAllocs: replay reads every frame into buffers it reuses,
// so a 1,000-record log costs a handful of allocations, not several per
// record.
func TestReplayWALAllocs(t *testing.T) {
	f, _ := NewMemFS().Create("w.wal")
	w := newWALWriter(f)
	const records = 1000
	for i := 0; i < records; i++ {
		rec := encodeRecord(record{Kind: kindSet, Seq: uint64(i + 1), Value: bytes.Repeat([]byte("v"), 100+i%50)})
		if err := w.Append([]byte(fmt.Sprintf("key-%04d", i)), rec); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	count := func(key, rec []byte) error { n++; return nil }
	allocs := testing.AllocsPerRun(5, func() {
		n = 0
		if err := replayWAL(f, count); err != nil {
			t.Fatal(err)
		}
	})
	if n != records {
		t.Fatalf("replayed %d records, want %d", n, records)
	}
	if allocs > 10 {
		t.Fatalf("replaying %d records allocated %.0f times, want <= 10", records, allocs)
	}
}

// FuzzReplayWAL feeds arbitrary bytes to replay as a log: it must never
// panic or fail, and the records it returns, framed again, must be a
// prefix of the input — replay only ever stops early, it never invents
// or alters a record.
func FuzzReplayWAL(f *testing.F) {
	one := appendFrame(nil, []byte("k"), encodeRecord(record{Kind: kindSet, Seq: 1, Value: []byte("v")}))
	two := appendFrame(append([]byte(nil), one...), []byte{}, encodeRecord(record{Kind: kindDelete, Seq: 2}))
	badCRC := append([]byte(nil), one...)
	badCRC[0] ^= 0xff
	// CRC-valid frames whose key framing lies: a key length past the
	// payload (near 2^64, where signed arithmetic wraps) and a key length
	// of 1 in a two-byte varint the writer never emits.
	raw := func(payload []byte) []byte {
		hdr := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
		return append(binary.LittleEndian.AppendUint32(hdr, uint32(len(payload))), payload...)
	}
	hugeKey := raw(append(binary.AppendUvarint(nil, 1<<64-1), "kv"...))
	longVarint := raw([]byte{0x81, 0x00, 'k', 'v'})
	for _, seed := range [][]byte{nil, one, two, two[:len(two)-1], append(append([]byte(nil), two...), 0xde, 0xad), badCRC, hugeKey, longVarint} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, _ := NewMemFS().Create("f.wal")
		file.Write(data)
		var reframed []byte
		if err := replayWAL(file, func(key, rec []byte) error {
			reframed = appendFrame(reframed, key, rec)
			return nil
		}); err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		if !bytes.HasPrefix(data, reframed) {
			t.Fatalf("replayed records reframe to %x, not a prefix of the input %x", reframed, data)
		}
	})
}
