package skiplist

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzMemtable decodes a run of puts, gets, seeks and full iterations
// from the input and checks each against a sorted-map model. Keys are
// zero to two bytes from a three-letter alphabet, so empty keys and
// overwrites are common; a value byte of 0xff or 0xfe asks for a value
// larger than a page or than a quarter of one, so overwrites grow a
// record onto a page of its own and shrink it back, and 0xfd asks for
// 200 fresh three-byte keys, so the index doubles. Every put is read
// back with Get, and at the end every key the model holds.
func FuzzMemtable(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 0, 3})                            // empty key: put, get, iterate
	f.Add([]byte{0, 1, 'a', 0xff, 1, 1, 'a', 3})               // a value larger than a page
	f.Add([]byte{0, 1, 'b', 3, 0, 1, 'b', 0xfe, 0, 1, 'b', 2}) // grow past a quarter page, then shrink
	f.Add([]byte{0, 2, 'a', 'b', 9, 0, 1, 'c', 1, 2, 1, 'b', 2, 0, 3})
	f.Add([]byte{0, 0, 0xfd, 0, 1, 'a', 4, 0, 0, 0xfd, 0, 1, 'a', 7, 1, 1, 'a', 3}) // the index doubles between overwrites
	f.Fuzz(func(t *testing.T, data []byte) {
		l := New(1)
		model := map[string][]byte{}
		big, bulk := 0, 0
		put := func(op int, k, v []byte) {
			l.Put(k, v)
			model[string(k)] = v
			if got, ok := l.Get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("op %d: Get(%q) after its put = %d bytes, %v; want %d bytes", op, k, len(got), ok, len(v))
			}
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		key := func() []byte {
			k := make([]byte, next()%3)
			for i := range k {
				k[i] = 'a' + next()%3
			}
			return k
		}
		sorted := func() []string {
			ks := make([]string, 0, len(model))
			for k := range model {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return ks
		}
		for op := 0; len(data) > 0; op++ {
			switch next() % 4 {
			case 0: // put
				k, n := key(), int(next())
				switch {
				case n == 0xff && big < 4:
					n, big = dataPageSize+10, big+1
				case n == 0xfe && big < 4:
					n, big = bigData+1, big+1
				case n == 0xfd && bulk < 8:
					bulk++
					for j := 0; j < 200; j++ {
						put(op, []byte{'d', byte(op), byte(j)}, []byte{byte(j)})
					}
				}
				put(op, k, bytes.Repeat([]byte{byte(op)}, n))
			case 1: // get
				k := key()
				v, ok := l.Get(k)
				want, wantOK := model[string(k)]
				if ok != wantOK || !bytes.Equal(v, want) {
					t.Fatalf("op %d: Get(%q) = %d bytes, %v; want %d bytes, %v", op, k, len(v), ok, len(want), wantOK)
				}
			case 2: // seek
				k := key()
				it := l.NewIterator()
				ok := it.Seek(k)
				ks := sorted()
				i := sort.SearchStrings(ks, string(k))
				if ok != (i < len(ks)) {
					t.Fatalf("op %d: Seek(%q) = %v with %d keys at or after it", op, k, ok, len(ks)-i)
				}
				if ok && (string(it.Key()) != ks[i] || !bytes.Equal(it.Value(), model[ks[i]])) {
					t.Fatalf("op %d: Seek(%q) landed on %q, want %q", op, k, it.Key(), ks[i])
				}
			case 3: // full iteration
				it := l.NewIterator()
				for _, k := range sorted() {
					if !it.Next() || string(it.Key()) != k || !bytes.Equal(it.Value(), model[k]) {
						t.Fatalf("op %d: iteration diverged at %q", op, k)
					}
				}
				if it.Next() {
					t.Fatalf("op %d: iteration ran past the model's %d keys", op, len(model))
				}
			}
			var live int64
			for k, v := range model {
				live += int64(len(k) + len(v))
			}
			if l.Len() != len(model) || l.Bytes() != live {
				t.Fatalf("op %d: Len %d, Bytes %d; want %d, %d", op, l.Len(), l.Bytes(), len(model), live)
			}
		}
		for k, want := range model {
			if v, ok := l.Get([]byte(k)); !ok || !bytes.Equal(v, want) {
				t.Fatalf("at the end: Get(%q) = %d bytes, %v; want %d bytes", k, len(v), ok, len(want))
			}
		}
	})
}
