package lavastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// SSTable layout:
//
//	entries:  repeated { klen uvarint | rlen uvarint | key | record }
//	index:    count uvarint, repeated { klen uvarint | key | offset uvarint }
//	          (sparse: one index entry per run of at most indexInterval
//	          entries and about indexBytes entry bytes; offset is the file
//	          offset of the run's first entry)
//	bloom:    blen uvarint | marshaled bloom filter
//	footer:   indexOff u64 LE | bloomOff u64 LE | entryCount u64 LE | magic u64 LE
//
// The format has no blocks: the constants below only set how much of
// a file one operation touches. A reader needs nothing but the index
// offsets, so tables cut by other rules (the earlier every-16-entries
// one) open and serve unchanged.
const (
	sstMagic   = 0x4142617365535354 // "ABaseSST"
	footerSize = 32
	// An index run ends after indexInterval entries or once it holds
	// indexBytes of entry bytes, whichever comes first: a point read
	// fetches one run, so it costs at most indexBytes plus one entry
	// whatever the value size.
	indexInterval = 16
	indexBytes    = 4 << 10
	// ioBlockSize is the unit the writer hands the file and the
	// iterator reads ahead by.
	ioBlockSize = 64 << 10
)

// tableWriter streams sorted key/record pairs into an SSTable file,
// one File.Write per ioBlockSize of encoded bytes.
type tableWriter struct {
	f        File
	block    []byte // encoded bytes not yet handed to f
	off      int64  // file offset the next encoded byte lands at
	count    int
	index    []byte   // encoded index entries
	runs     int      // index entries in index
	runCount int      // entries in the current index run
	runBytes int      // entry bytes in the current index run
	hashes   []uint64 // one bloom hash per key
	lastKey  []byte
}

type indexEntry struct {
	key []byte
	off int64
}

func newTableWriter(f File) *tableWriter {
	// A block is handed over once it reaches ioBlockSize, so it overshoots
	// by part of one entry; the slack keeps ordinary entries from
	// regrowing it.
	return &tableWriter{f: f, block: make([]byte, 0, ioBlockSize+indexBytes)}
}

// Add appends a key/record pair. Keys must be added in strictly
// ascending order.
func (w *tableWriter) Add(key []byte, rec []byte) error {
	if w.count > 0 && bytes.Compare(key, w.lastKey) <= 0 {
		return fmt.Errorf("lavastore: sstable keys out of order: %q after %q", key, w.lastKey)
	}
	if w.count == 0 || w.runCount == indexInterval || w.runBytes >= indexBytes {
		w.index = binary.AppendUvarint(w.index, uint64(len(key)))
		w.index = append(w.index, key...)
		w.index = binary.AppendUvarint(w.index, uint64(w.off))
		w.runs++
		w.runCount, w.runBytes = 0, 0
	}
	start := len(w.block)
	w.block = binary.AppendUvarint(w.block, uint64(len(key)))
	w.block = binary.AppendUvarint(w.block, uint64(len(rec)))
	w.block = append(w.block, key...)
	w.block = append(w.block, rec...)
	n := len(w.block) - start
	w.off += int64(n)
	w.runCount++
	w.runBytes += n
	w.hashes = append(w.hashes, bloomHash(key))
	w.lastKey = append(w.lastKey[:0], key...)
	w.count++
	if len(w.block) >= ioBlockSize {
		return w.flushBlock()
	}
	return nil
}

// flushBlock hands the buffered bytes to the file in one Write.
func (w *tableWriter) flushBlock() error {
	_, err := w.f.Write(w.block)
	w.block = w.block[:0]
	return err
}

// Finish writes the index, bloom filter, and footer, then syncs.
func (w *tableWriter) Finish() error {
	indexOff := w.off
	start := len(w.block)
	w.block = binary.AppendUvarint(w.block, uint64(w.runs))
	w.block = append(w.block, w.index...)
	bloomOff := indexOff + int64(len(w.block)-start)

	bf := newBloomFilter(len(w.hashes))
	for _, h := range w.hashes {
		bf.addHash(h)
	}
	bb := bf.Marshal()
	w.block = binary.AppendUvarint(w.block, uint64(len(bb)))
	w.block = append(w.block, bb...)

	w.block = binary.LittleEndian.AppendUint64(w.block, uint64(indexOff))
	w.block = binary.LittleEndian.AppendUint64(w.block, uint64(bloomOff))
	w.block = binary.LittleEndian.AppendUint64(w.block, uint64(w.count))
	w.block = binary.LittleEndian.AppendUint64(w.block, sstMagic)
	if err := w.flushBlock(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Table is an open, readable SSTable. The sparse index and bloom filter
// are resident in memory; entry data is read on demand.
type Table struct {
	f        File
	index    []indexEntry
	bloom    *bloomFilter
	count    int
	dataEnd  int64 // offset where entries stop (== indexOff)
	name     string
	sizeB    int64
	firstKey []byte
	lastKey  []byte
}

var errBadTable = errors.New("lavastore: bad sstable")

// openTable parses the footer, index, and bloom filter of an SSTable.
func openTable(f File, name string) (*Table, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerSize {
		return nil, fmt.Errorf("%w: file too small", errBadTable)
	}
	var footer [footerSize]byte
	if err := readFullAt(f, footer[:], size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[24:32]) != sstMagic {
		return nil, fmt.Errorf("%w: bad magic", errBadTable)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[8:16]))
	count := int(binary.LittleEndian.Uint64(footer[16:24]))
	if indexOff < 0 || bloomOff < indexOff || bloomOff > size-footerSize {
		return nil, fmt.Errorf("%w: bad section offsets", errBadTable)
	}

	idxBuf := make([]byte, bloomOff-indexOff)
	if err := readFullAt(f, idxBuf, indexOff); err != nil {
		return nil, err
	}
	n, sz := binary.Uvarint(idxBuf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad index count", errBadTable)
	}
	idxBuf = idxBuf[sz:]
	index := make([]indexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, s := binary.Uvarint(idxBuf)
		if s <= 0 || uint64(len(idxBuf)) < uint64(s)+klen {
			return nil, fmt.Errorf("%w: bad index entry", errBadTable)
		}
		key := idxBuf[s : s+int(klen)]
		idxBuf = idxBuf[s+int(klen):]
		off, s2 := binary.Uvarint(idxBuf)
		if s2 <= 0 {
			return nil, fmt.Errorf("%w: bad index offset", errBadTable)
		}
		idxBuf = idxBuf[s2:]
		index = append(index, indexEntry{key: key, off: int64(off)})
	}

	bloomBuf := make([]byte, size-footerSize-bloomOff)
	if err := readFullAt(f, bloomBuf, bloomOff); err != nil {
		return nil, err
	}
	blen, s := binary.Uvarint(bloomBuf)
	if s <= 0 || uint64(len(bloomBuf)) < uint64(s)+blen {
		return nil, fmt.Errorf("%w: bad bloom", errBadTable)
	}
	bloom := unmarshalBloom(bloomBuf[s : s+int(blen)])

	t := &Table{
		f:       f,
		index:   index,
		bloom:   bloom,
		count:   count,
		dataEnd: indexOff,
		name:    name,
		sizeB:   size,
	}
	if len(index) > 0 {
		t.firstKey = index[0].key
	}
	return t, nil
}

// readFullAt fills buf from f at off; a short read is an error.
func readFullAt(f File, buf []byte, off int64) error {
	if n, err := f.ReadAt(buf, off); n < len(buf) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// decodeEntry decodes the entry at the head of buf. size is the bytes
// the entry occupies; when buf ends before the entry does, size exceeds
// len(buf) (len(buf)+1 if not even the header fits) and key and rec are
// nil. A header that cannot be a varint pair is an error.
func decodeEntry(buf []byte) (key, rec []byte, size int, err error) {
	klen, s := binary.Uvarint(buf)
	rlen, s2 := binary.Uvarint(buf[max(s, 0):])
	switch {
	case s < 0 || s2 < 0 || klen > math.MaxInt32 || rlen > math.MaxInt32:
		return nil, nil, 0, fmt.Errorf("%w: entry header", errBadTable)
	case s == 0 || s2 == 0:
		return nil, nil, len(buf) + 1, nil
	}
	hdr := s + s2
	size = hdr + int(klen) + int(rlen)
	if size > len(buf) {
		return nil, nil, size, nil
	}
	return buf[hdr : hdr+int(klen)], buf[hdr+int(klen) : size], size, nil
}

// indexFloor returns the position of the last sparse-index entry with
// key <= target, or -1 when target sorts before the table's first key.
func (t *Table) indexFloor(target []byte) int {
	return sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, target) > 0
	}) - 1
}

// Get looks up key. It returns the encoded record, whether the key is
// present, and the number of simulated disk reads performed (0 when the
// bloom filter rejects, 1 when the entry region was scanned). A served
// lookup is one ReadAt of one index run, into buf when the run fits its
// capacity and into a buffer of its own when it does not; the record
// points into that buffer.
func (t *Table) Get(key, buf []byte) (rec []byte, found bool, ioReads int, err error) {
	if !t.bloom.MayContain(key) {
		return nil, false, 0, nil
	}
	pos := t.indexFloor(key)
	if pos < 0 {
		return nil, false, 1, nil // bloom false positive before first key
	}
	start := t.index[pos].off
	end := t.dataEnd
	if pos+1 < len(t.index) {
		end = t.index[pos+1].off
	}
	if n := end - start; int64(cap(buf)) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if err := readFullAt(t.f, buf, start); err != nil {
		return nil, false, 1, fmt.Errorf("lavastore: read %s: %w", t.name, err)
	}
	for len(buf) > 0 {
		ekey, erec, size, err := decodeEntry(buf)
		if err != nil {
			return nil, false, 1, fmt.Errorf("%w in %s", err, t.name)
		}
		if size > len(buf) {
			return nil, false, 1, fmt.Errorf("%w: short entry in %s", errBadTable, t.name)
		}
		buf = buf[size:]
		switch bytes.Compare(ekey, key) {
		case 0:
			return erec, true, 1, nil
		case 1:
			return nil, false, 1, nil // passed the key: absent
		}
	}
	return nil, false, 1, nil
}

// Count returns the number of entries in the table.
func (t *Table) Count() int { return t.count }

// Size returns the table file size in bytes.
func (t *Table) Size() int64 { return t.sizeB }

// Name returns the table's file name.
func (t *Table) Name() string { return t.name }

// Close releases the underlying file.
func (t *Table) Close() error { return t.f.Close() }

// tableIterator streams every entry of a table in key order, reading
// the file ahead one ioBlockSize block at a time. After a seek to a
// key the read-ahead starts at one index run and doubles per block, so
// a page of a few entries does not pay for a block it will not read.
// Blocks are filled alternately into two buffers, so the Key and Rec
// of one entry stay intact across the following Next even when it
// refills — the scan merge hands out a record after advancing past it.
type tableIterator struct {
	t     *Table
	off   int64     // file offset of the next entry to decode
	blk   []byte    // read-ahead bytes not yet decoded; blk[0] is at off
	bufs  [2][]byte // the blocks blk alternates between
	cur   int       // which of bufs holds blk
	ahead int       // size of the next block
	key   []byte
	rec   []byte
	err   error
}

func (t *Table) iterator() *tableIterator { return &tableIterator{t: t, ahead: ioBlockSize} }

// Next advances the iterator, reporting false at the end or on error.
func (it *tableIterator) Next() bool {
	if it.off >= it.t.dataEnd || it.err != nil {
		return false
	}
	key, rec, size, err := decodeEntry(it.blk)
	if err == nil && size > len(it.blk) {
		if it.err = it.fill(size); it.err != nil {
			return false
		}
		if key, rec, size, err = decodeEntry(it.blk); err == nil && size > len(it.blk) {
			err = fmt.Errorf("%w: entry runs past the data region", errBadTable)
		}
	}
	if err != nil {
		it.err = err
		return false
	}
	it.key, it.rec = key, rec
	it.blk = it.blk[size:]
	it.off += int64(size)
	return true
}

// fill reads the next block — at least need bytes, never past the data
// region — from the current offset into the buffer not in use.
func (it *tableIterator) fill(need int) error {
	n := min(int64(max(need, it.ahead)), it.t.dataEnd-it.off)
	it.ahead = min(2*it.ahead, ioBlockSize)
	it.cur ^= 1
	if int64(cap(it.bufs[it.cur])) < n {
		it.bufs[it.cur] = make([]byte, n)
	}
	it.blk = it.bufs[it.cur][:n]
	return readFullAt(it.t.f, it.blk, it.off)
}

// seek positions the iterator at the first entry with key >= target,
// reporting whether one exists. A nil or empty target positions at the
// first entry. The sparse index narrows the starting offset so only one
// index run is walked.
func (it *tableIterator) seek(target []byte) bool {
	it.off, it.blk, it.err = 0, nil, nil
	if len(target) > 0 {
		// Entries before the floor run's offset are all < target.
		if pos := it.t.indexFloor(target); pos >= 0 {
			it.off = it.t.index[pos].off
		}
		it.ahead = indexBytes
	}
	for it.Next() {
		if len(target) == 0 || bytes.Compare(it.key, target) >= 0 {
			return true
		}
	}
	return false
}

func (it *tableIterator) Key() []byte { return it.key }
func (it *tableIterator) Rec() []byte { return it.rec }
func (it *tableIterator) Err() error  { return it.err }
