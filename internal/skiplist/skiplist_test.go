package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	l := New(1)
	if _, ok := l.Get([]byte("a")); ok {
		t.Fatal("Get on empty list returned ok")
	}
	if l.Len() != 0 || l.Bytes() != 0 {
		t.Fatal("empty list has nonzero size")
	}
	it := l.NewIterator()
	if it.Next() {
		t.Fatal("iterator on empty list advanced")
	}
}

func TestPutGet(t *testing.T) {
	l := New(1)
	l.Put([]byte("b"), []byte("2"))
	l.Put([]byte("a"), []byte("1"))
	l.Put([]byte("c"), []byte("3"))
	for _, kv := range []struct{ k, v string }{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		got, ok := l.Get([]byte(kv.k))
		if !ok || string(got) != kv.v {
			t.Fatalf("Get(%q) = %q, %v", kv.k, got, ok)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestOverwrite(t *testing.T) {
	l := New(1)
	l.Put([]byte("k"), []byte("old"))
	l.Put([]byte("k"), []byte("newvalue"))
	got, ok := l.Get([]byte("k"))
	if !ok || string(got) != "newvalue" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", l.Len())
	}
	want := int64(len("k") + len("newvalue"))
	if l.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", l.Bytes(), want)
	}
}

func TestIterationOrder(t *testing.T) {
	l := New(42)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for _, k := range keys {
		l.Put([]byte(k), []byte(k))
	}
	it := l.NewIterator()
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSeek(t *testing.T) {
	l := New(1)
	for _, k := range []string{"b", "d", "f"} {
		l.Put([]byte(k), []byte(k))
	}
	it := l.NewIterator()
	if !it.Seek([]byte("c")) || string(it.Key()) != "d" {
		t.Fatalf("Seek(c) landed on %q", it.Key())
	}
	if !it.Seek([]byte("b")) || string(it.Key()) != "b" {
		t.Fatalf("Seek(b) landed on %q", it.Key())
	}
	if it.Seek([]byte("g")) {
		t.Fatal("Seek past end returned true")
	}
}

func TestSeekThenNext(t *testing.T) {
	l := New(1)
	for _, k := range []string{"a", "b", "c"} {
		l.Put([]byte(k), []byte(k))
	}
	it := l.NewIterator()
	it.Seek([]byte("b"))
	if !it.Next() || string(it.Key()) != "c" {
		t.Fatalf("Next after Seek = %q", it.Key())
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	l := New(7)
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key%06d", i))
			l.Put(k, k)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("key%06d", rng.Intn(n)))
				if v, ok := l.Get(k); ok && !bytes.Equal(v, k) {
					t.Errorf("Get(%q) = %q", k, v)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
}

func TestConcurrentWriters(t *testing.T) {
	l := New(7)
	var wg sync.WaitGroup
	const perWriter = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				l.Put(k, k)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 4*perWriter {
		t.Fatalf("Len = %d", l.Len())
	}
	// Verify full ordering afterwards.
	it := l.NewIterator()
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("order violation: %q then %q", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
	}
}

func TestPropertyMatchesMap(t *testing.T) {
	// Property: after any sequence of puts, Get matches a reference map
	// and iteration yields sorted unique keys.
	f := func(ops [][2]string) bool {
		l := New(99)
		ref := map[string]string{}
		for _, op := range ops {
			k, v := op[0], op[1]
			if k == "" {
				continue
			}
			l.Put([]byte(k), []byte(v))
			ref[k] = v
		}
		if l.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := l.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		it := l.NewIterator()
		var prev string
		first := true
		for it.Next() {
			k := string(it.Key())
			if !first && k <= prev {
				return false
			}
			prev, first = k, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	l := New(1)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%09d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Put(keys[i], keys[i])
	}
}

func BenchmarkGet(b *testing.B) {
	l := New(1)
	const n = 100000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%09d", i))
		l.Put(keys[i], keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get(keys[i%n])
	}
}

// roundValue is key i's value in writer round r: it names both. Its
// length stays put for two rounds, so an overwrite in place would show,
// then grows or shrinks, sometimes across the size at which a value gets
// a page of its own.
func roundValue(i, r int) []byte {
	head := fmt.Sprintf("%05d/%03d/", i, r)
	n := (i*7 + r/2*131) % 600
	if (i+r)%97 == 0 {
		n = bigData + 100
	}
	return append([]byte(head), bytes.Repeat([]byte{byte('a' + (i+r)%26)}, n)...)
}

// checkRound reports whether v is exactly key i's value of some round
// in [lo, hi], where -1 means never written.
func checkRound(v []byte, i, lo, hi int) error {
	var vi, r int
	if _, err := fmt.Sscanf(string(v[:min(len(v), 10)]), "%05d/%03d/", &vi, &r); err != nil {
		return fmt.Errorf("unparsable value %.20q", v)
	}
	if vi != i || r < lo || r > hi {
		return fmt.Errorf("key %d read round %d of key %d, want a round in [%d, %d]", i, r, vi, lo, hi)
	}
	if !bytes.Equal(v, roundValue(i, r)) {
		return fmt.Errorf("key %d read %d bytes that are not its round %d value", i, len(v), r)
	}
	return nil
}

// TestReadersSeePublishedValues: one writer inserts keys and overwrites
// them with values that grow and shrink, while readers Get, Seek and
// iterate. Every value read is exactly one the writer published for that
// key, no older than what was published before the read began, and a
// slice a reader keeps stays intact after the writer moves on.
func TestReadersSeePublishedValues(t *testing.T) {
	const keys, rounds = 300, 12
	l := New(3)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	var published [keys]atomic.Int32 // last round whose Put returned
	for i := range published {
		published[i].Store(-1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			for j := 0; j < keys; j++ {
				i := (j * 37) % keys // insert out of order
				l.Put(key(i), roundValue(i, r))
				published[i].Store(int32(r))
			}
		}
	}()
	type kept struct {
		v    []byte
		want []byte
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	keptBy := make([][]kept, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			fail := func(err error) { errs <- err }
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(keys)
				switch n % 3 {
				case 0:
					lo := int(published[i].Load())
					v, ok := l.Get(key(i))
					if !ok {
						if lo >= 0 {
							fail(fmt.Errorf("Get(key %d) missed after round %d was published", i, lo))
							return
						}
						continue
					}
					if err := checkRound(v, i, lo, rounds-1); err != nil {
						fail(err)
						return
					}
					if n%50 == 0 {
						keptBy[g] = append(keptBy[g], kept{v, append([]byte(nil), v...)})
					}
				case 1:
					it := l.NewIterator()
					if !it.Seek(key(i)) {
						continue
					}
					var j int
					fmt.Sscanf(string(it.Key()), "k%05d", &j)
					if j < i || !bytes.Equal(it.Key(), key(j)) {
						fail(fmt.Errorf("Seek(key %d) landed on %q", i, it.Key()))
						return
					}
					if err := checkRound(it.Value(), j, 0, rounds-1); err != nil {
						fail(err)
						return
					}
				case 2:
					if n%30 != 2 {
						continue
					}
					it := l.NewIterator()
					prev := -1
					for it.Next() {
						var j int
						fmt.Sscanf(string(it.Key()), "k%05d", &j)
						if j <= prev {
							fail(fmt.Errorf("iteration went from key %d to %d", prev, j))
							return
						}
						if err := checkRound(it.Value(), j, 0, rounds-1); err != nil {
							fail(err)
							return
						}
						prev = j
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, ks := range keptBy {
		for _, k := range ks {
			if !bytes.Equal(k.v, k.want) {
				t.Fatalf("a kept value changed under its reader: %.20q, was %.20q", k.v, k.want)
			}
		}
	}
	for i := 0; i < keys; i++ {
		if v, ok := l.Get(key(i)); !ok || !bytes.Equal(v, roundValue(i, rounds-1)) {
			t.Fatalf("key %d ends at %.20q, want its last round", i, v)
		}
	}
}

// TestReleaseRecyclesPages: a released list's full-size data pages go to
// the free list, the next list fills them before it makes new ones, a
// page of its own for a large value is left to the collector, as is the
// index, and a Get or a second Release panics rather than read or hand
// out a page twice.
func TestReleaseRecyclesPages(t *testing.T) {
	fill := func(l *List, tag byte) {
		for i := 0; i < 200; i++ {
			l.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{tag}, 1000))
		}
	}
	a := New(1)
	fill(a, 'a')
	a.Put([]byte("big"), make([]byte, 3*bigData))
	made0, free0 := PoolPages()
	full := 0
	for _, p := range a.dir.Load().data {
		if len(p) == dataPageSize {
			full++
		}
	}
	if a.index.Load() == nil {
		t.Fatal("a filled list has no index")
	}
	a.Release()
	if made, free := PoolPages(); made != made0 || free != min(free0+full, MaxFreePages) {
		t.Fatalf("after Release: %d pages made, %d free; want %d made, %d free", made, free, made0, min(free0+full, MaxFreePages))
	}
	if a.index.Load() != nil {
		t.Fatal("Release kept the index")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Get on a released list did not panic")
			}
		}()
		a.Get([]byte("k000"))
	}()

	b := New(1)
	fill(b, 'b')
	if made, _ := PoolPages(); made != made0 {
		t.Fatalf("a list the free list can fill made %d pages", made-made0)
	}
	for i := 0; i < 200; i++ {
		if v, ok := b.Get([]byte(fmt.Sprintf("k%03d", i))); !ok || !bytes.Equal(v, bytes.Repeat([]byte{'b'}, 1000)) {
			t.Fatalf("k%03d in reused pages = %.8q…, %v", i, v, ok)
		}
	}
	b.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
	}()
	a.Release()
}
