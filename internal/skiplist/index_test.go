package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func memKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// TestGetAgreesWithIteration: one writer inserts fresh keys in a
// shuffled order while more readers than cores chase the key being
// inserted now. A key an iterator shows must then be found by Get, and
// a key Get finds must then be shown by an iterator: both see a key
// from its level-0 link on, never before. Readers also walk a stretch
// of the list and Get every key they pass.
func TestGetAgreesWithIteration(t *testing.T) {
	const n = 10000
	l := New(5)
	order := rand.New(rand.NewSource(1)).Perm(n)
	var cur atomic.Int64 // index into order of the key being inserted
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j, i := range order {
			cur.Store(int64(j))
			l.Put(memKey(i), memKey(i))
		}
	}()
	readers := runtime.GOMAXPROCS(0) + 2
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-done:
					return
				default:
				}
				k := memKey(order[cur.Load()])
				it := l.NewIterator()
				if it.Seek(k) && bytes.Equal(it.Key(), k) {
					if _, ok := l.Get(k); !ok {
						errs <- fmt.Errorf("Get(%s) missed a key Seek showed", k)
						return
					}
				}
				k = memKey(order[cur.Load()])
				if _, ok := l.Get(k); ok {
					if it := l.NewIterator(); !it.Seek(k) || !bytes.Equal(it.Key(), k) {
						errs <- fmt.Errorf("Seek(%s) missed a key Get found", k)
						return
					}
				}
				if r%16 != 0 {
					continue
				}
				it = l.NewIterator()
				for s := 0; s < 32 && it.Next(); s++ {
					if v, ok := l.Get(it.Key()); !ok || !bytes.Equal(v, it.Key()) {
						errs <- fmt.Errorf("Get(%s) = %q, %v after iteration passed it", it.Key(), v, ok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGetDuringGrowth: readers Get keys already inserted, the newest
// and any, while the writer fills the index through every doubling.
// Before each insert that doubles it the writer waits until every
// reader is busy, so each doubling runs under Gets; every key whose
// Put returned before a Get began must be found.
func TestGetDuringGrowth(t *testing.T) {
	const n = 12000
	l := New(9)
	readers := runtime.GOMAXPROCS(0) + 1
	var inserted, gets atomic.Int64
	done := make(chan struct{})
	doublings := 0
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if x := l.index.Load(); x != nil && (l.length.Load()+1)*4 > int64(len(*x))*3 {
				doublings++
				for g0 := gets.Load(); gets.Load() < g0+int64(4*readers); {
					runtime.Gosched()
				}
			}
			l.Put(memKey(i), memKey(i))
			inserted.Store(int64(i + 1))
		}
	}()
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; ; r++ {
				select {
				case <-done:
					return
				default:
				}
				c := int(inserted.Load())
				if c == 0 {
					runtime.Gosched()
					continue
				}
				i := c - 1
				if r%2 == 1 {
					i = rng.Intn(c)
				}
				if v, ok := l.Get(memKey(i)); !ok || !bytes.Equal(v, memKey(i)) {
					errs <- fmt.Errorf("Get(%s) = %q, %v after its Put returned, index %d slots", memKey(i), v, ok, len(*l.index.Load()))
					return
				}
				gets.Add(1)
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := 7; doublings != want || len(*l.index.Load()) != minSlots<<want {
		t.Fatalf("%d doublings to %d slots, want %d to %d", doublings, len(*l.index.Load()), want, minSlots<<want)
	}
}

// TestTagCollision: two keys whose tags are equal share a probe run,
// and each finds its own node through inserts and overwrites.
func TestTagCollision(t *testing.T) {
	seen := map[uint32]int{}
	a, b := -1, -1
	for i := 0; a < 0; i++ {
		tag := tagOf(memKey(i))
		if j, ok := seen[tag]; ok {
			a, b = j, i
		}
		seen[tag] = i
	}
	l := New(1)
	l.Put(memKey(a), []byte("a1"))
	l.Put(memKey(b), []byte("b1"))
	l.Put(memKey(a), []byte("a2"))
	for _, c := range []struct {
		i    int
		want string
	}{{a, "a2"}, {b, "b1"}} {
		if v, ok := l.Get(memKey(c.i)); !ok || string(v) != c.want {
			t.Fatalf("Get(%s) = %q, %v; want %q", memKey(c.i), v, ok, c.want)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

// zipfKeys returns count draws of key-%08d keys, Zipf 1.01 over keys.
func zipfKeys(keys, count int) [][]byte {
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.01, 1, uint64(keys-1))
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = memKey(i)
	}
	out := make([][]byte, count)
	for i := range out {
		out[i] = ks[z.Uint64()]
	}
	return out
}

// memtableBytes is what a bench list holds before it is replaced, as a
// memtable is flushed.
const memtableBytes = 4 << 20

// insertInto puts keys[i%len(keys)] with a 128-byte value into lists
// used in turn, replacing a list once it holds memtableBytes.
func insertInto(b *testing.B, lists []*List, keys [][]byte) {
	val := bytes.Repeat([]byte("v"), 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lists[i%len(lists)]
		if l.PageBytes() >= memtableBytes {
			l.Release()
			l = New(int64(i))
			lists[i%len(lists)] = l
		}
		l.Put(keys[i%len(keys)], val)
	}
	b.StopTimer()
	for _, l := range lists {
		l.Release()
	}
}

// BenchmarkInsertZipf: memtable inserts as a partition's replicas take
// them, a Zipf 1.01 stream over 16,384 keys into three lists in turn;
// nearly every insert overwrites a key its list holds.
func BenchmarkInsertZipf(b *testing.B) {
	insertInto(b, []*List{New(1), New(2), New(3)}, zipfKeys(16384, 1<<16))
}

// BenchmarkInsertFresh: every insert a new key, in shuffled order, into
// one list until it holds memtableBytes, then into a new one.
func BenchmarkInsertFresh(b *testing.B) {
	keys := make([][]byte, memtableBytes/(12+128))
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(keys)) {
		keys[i] = memKey(j)
	}
	insertInto(b, []*List{New(1)}, keys)
}
