package lavastore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
)

// walWriter appends length-prefixed, CRC-protected records to a log
// file. Format per record:
//
//	crc32 (4 bytes LE, over payload) | payloadLen (4 bytes LE) | payload
//
// payload: klen uvarint | key | encoded record
type walWriter struct {
	f   File
	out []byte // framed-output scratch
}

func newWALWriter(f File) *walWriter { return &walWriter{f: f} }

// appendFrame appends one length-prefixed, CRC-protected record to dst.
// The payload is encoded once, in place behind a reserved header that
// is patched when its length and checksum are known.
func appendFrame(dst, key, rec []byte) []byte {
	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = append(dst, rec...)
	payload := dst[hdr+8:]
	binary.LittleEndian.PutUint32(dst[hdr:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(dst[hdr+4:], uint32(len(payload)))
	return dst
}

// Append writes one key/record pair to the log.
func (w *walWriter) Append(key []byte, rec []byte) error {
	w.out = appendFrame(w.out[:0], key, rec)
	if _, err := w.f.Write(w.out); err != nil {
		return fmt.Errorf("lavastore: wal write: %w", err)
	}
	return nil
}

// AppendMany writes several key/record pairs with a single device
// write (group commit). The per-record framing is identical to
// Append's, so replay is oblivious to batching.
func (w *walWriter) AppendMany(keys, recs [][]byte) error {
	out := w.out[:0]
	for i := range keys {
		out = appendFrame(out, keys[i], recs[i])
	}
	w.out = out
	if _, err := w.f.Write(out); err != nil {
		return fmt.Errorf("lavastore: wal batch write: %w", err)
	}
	return nil
}

// Sync flushes the log to stable storage.
func (w *walWriter) Sync() error { return w.f.Sync() }

// Close closes the underlying file.
func (w *walWriter) Close() error { return w.f.Close() }

// replayWAL reads every valid record from the log, invoking fn for
// each. A torn final record — short header, short payload, CRC
// mismatch, or a payload whose key framing does not parse — ends
// replay without error: the valid prefix is kept and the tail is
// logically truncated, matching crash-recovery semantics. (Open
// rewrites the surviving records into a fresh log and deletes this
// one, so the truncation becomes physical.) Only fn's own error
// propagates.
//
// The header and payload are read into buffers every record reuses, so
// key and rec are only valid during fn's call; copy to retain.
func replayWAL(f File, fn func(key []byte, rec []byte) error) error {
	size, err := f.Size()
	if err != nil {
		return err
	}
	hdr := make([]byte, 8)
	var payload []byte
	for off := int64(0); off < size; {
		if readFullAt(f, hdr, off) != nil {
			return nil // torn header at tail
		}
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		plen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if off+8+plen > size {
			return nil // torn payload at tail
		}
		payload = slices.Grow(payload[:0], int(plen))[:plen]
		if readFullAt(f, payload, off+8) != nil || crc32.ChecksumIEEE(payload) != crc {
			return nil // corrupt tail record: stop replay
		}
		klen, n := binary.Uvarint(payload)
		if n <= 0 || n != uvarintLen(klen) || klen > uint64(len(payload)-n) {
			// A CRC-valid frame with unparsable key framing can only be
			// a torn/garbage tail (e.g. a partial multi-record group
			// commit whose cut landed frame-aligned): truncate here too
			// instead of failing recovery. The writer only emits the
			// shortest varint, so a longer one is garbage as well.
			return nil
		}
		key := payload[n : n+int(klen)]
		rec := payload[n+int(klen):]
		if err := fn(key, rec); err != nil {
			return err
		}
		off += 8 + plen
	}
	return nil
}

// uvarintLen is the length of v's shortest uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
