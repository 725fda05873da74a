package datanode

import (
	"bytes"
	"testing"
	"time"

	"abase/internal/hashfield"
)

// FuzzMutationApply drives the one decision function of every keyed
// write with a random kind, condition, KEEPTTL, fields and current
// record, and checks the deadline rules: KEEPTTL, HSET and HDEL keep the
// current deadline; SET with a TTL and EXPIRE store the deadline they are
// given; a plain SET and PERSIST store none. Whatever a mutation decides,
// it decides the same way twice.
func FuzzMutationApply(f *testing.F) {
	hash := hashfield.Encode(map[string][]byte{"a": []byte("1")})
	for kind := uint8(0); kind <= uint8(MutClearTTL); kind++ {
		f.Add(kind, uint8(0), false, true, hash, int64(0), int64(0), []byte("a\x001"))
		f.Add(kind, uint8(1), true, true, hash, int64(1735693200), int64(0), []byte("a\x00\x00b"))
		f.Add(kind, uint8(2), true, true, []byte("plain"), int64(1735693200), int64(1735696800), []byte("b\x002"))
		f.Add(kind, uint8(0), false, false, []byte(nil), int64(0), int64(1735696800), []byte(""))
	}
	f.Fuzz(func(t *testing.T, kind, cond uint8, keepTTL, exists bool, value []byte, curExpireAt, deadline int64, fields []byte) {
		m := Mutation{
			Kind:       MutationKind(kind % (uint8(MutClearTTL) + 1)),
			Key:        []byte("k"),
			Value:      []byte("new"),
			PutOptions: PutOptions{KeepTTL: keepTTL, Cond: PutCond(cond % 3)},
		}
		// The write op passes a deadline exactly when the mutation
		// carries a TTL.
		if deadline = max(deadline, 0); deadline > 0 {
			m.TTL = time.Hour
		}
		parts := bytes.Split(fields, []byte{0})
		for i := 0; i+1 < len(parts); i += 2 {
			m.Fields = append(m.Fields, FieldValue{Field: string(parts[i]), Value: parts[i+1]})
		}
		cur := keyState{known: needRecord}
		if exists {
			cur.exists, cur.value, cur.expireAt = true, value, max(curExpireAt, 0)
		}

		eff, next, count, err := m.apply(cur, deadline)
		eff2, next2, count2, err2 := m.apply(cur, deadline)
		if eff != eff2 || count != count2 || err != err2 || next.expireAt != next2.expireAt || !bytes.Equal(next.value, next2.value) {
			t.Fatalf("apply is not a function of its inputs: %v %+v %d %v, then %v %+v %d %v", eff, next, count, err, eff2, next2, count2, err2)
		}
		if err != nil && m.Kind != MutSetFields && m.Kind != MutDelFields {
			t.Fatalf("kind %d failed with %v; only field mutations read the stored value", m.Kind, err)
		}
		switch eff {
		case effWrite:
			want := cur.expireAt // HSET, HDEL
			switch m.Kind {
			case MutPut:
				switch {
				case deadline != 0:
					want = deadline
				case !m.KeepTTL:
					want = 0
				}
			case MutSetTTL:
				want = deadline
			case MutClearTTL:
				want = 0
			case MutDelete:
				t.Fatal("DEL wrote a record instead of a tombstone")
			}
			if !next.exists || next.expireAt != want {
				t.Fatalf("kind %d (keepTTL %v, deadline %d) on %+v stored %+v; want deadline %d", m.Kind, m.KeepTTL, deadline, cur, next, want)
			}
		case effTombstone:
			if !cur.exists || (m.Kind != MutDelete && m.Kind != MutDelFields) || next.exists {
				t.Fatalf("kind %d on %+v deleted the key", m.Kind, cur)
			}
		case effLeave, effNotFound:
			if next.exists != cur.exists || next.expireAt != cur.expireAt {
				t.Fatalf("kind %d left the key yet changed it: %+v -> %+v", m.Kind, cur, next)
			}
			if eff == effNotFound && cur.exists {
				t.Fatalf("kind %d found no key in %+v", m.Kind, cur)
			}
		}
	})
}
