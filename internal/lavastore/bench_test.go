package lavastore

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The benchmarks below measure the engine's file-I/O paths at
// the churn workload's value size. Their B/op and allocs/op are exact
// across runs; ns/op is a mean and only means something in paired runs.
//
//	go test -run '^$' -bench 'TableGet|Ingest|MemtablePut|Compact' -benchmem ./internal/lavastore

const benchValueSize = 1 << 10

var benchValue = bytes.Repeat([]byte("v"), benchValueSize)

// benchKey spreads i over the key space so successive tables overlap
// instead of stacking end to end.
func benchKey(buf []byte, i int) []byte {
	return binary.BigEndian.AppendUint64(append(buf[:0], "key-"...), uint64(i)*0x9E3779B97F4A7C15)
}

// BenchmarkTableGet: a point read no memtable holds — one bloom probe
// per table, one index run read from the table that has the key.
func BenchmarkTableGet(b *testing.B) {
	db, _ := Open(Options{FS: NewMemFS(), DisableAutoCompact: true})
	defer db.Close()
	const n = 4 * 4000 // four tables at the default memtable size
	var kb []byte
	for i := 0; i < n; i++ {
		kb = benchKey(kb, i)
		if err := db.Put(kb, benchValue, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb = benchKey(kb, (i*7919)%n)
		if res, err := db.Get(kb); err != nil || len(res.Value) != benchValueSize {
			b.Fatalf("Get: %d bytes, %v", len(res.Value), err)
		}
	}
}

// BenchmarkIngest: sustained writes with the flushes and full
// compactions they trigger run inline, as the DataNode runs them.
func BenchmarkIngest(b *testing.B) {
	db, _ := Open(Options{FS: NewMemFS()})
	defer db.Close()
	var kb []byte
	b.SetBytes(benchValueSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb = benchKey(kb, i)
		if err := db.Put(kb, benchValue, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemtablePut: writes into a memtable that never fills, so
// the time is the commit and the skiplist insert alone. The insert
// compares the new key with keys spread over the whole memtable; how
// densely those keys sit in memory sets most of it.
func BenchmarkMemtablePut(b *testing.B) {
	db, _ := Open(Options{FS: NewMemFS(), MemtableBytes: 1 << 30})
	defer db.Close()
	var kb []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb = benchKey(kb, i)
		if err := db.Put(kb, benchValue, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact: one full compaction of eight overlapping 1 MiB
// tables per iteration; building them is off the clock.
func BenchmarkCompact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, _ := Open(Options{FS: NewMemFS(), MemtableBytes: 1 << 20, DisableAutoCompact: true})
		var kb []byte
		for k := 0; db.Stats().Flushes < 8; k++ {
			kb = benchKey(kb, k)
			if err := db.Put(kb, benchValue, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(db.Stats().TableBytes)
		b.StartTimer()
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}
