package proxy

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeCursor feeds the SCAN cursor decoder arbitrary client
// input. A cursor is either rejected with ErrBadCursor (the caller
// restarts the traversal) or names a position that survives
// re-encoding exactly — a cursor that decoded to a different spot would
// silently skip or repeat part of the keyspace. It must never panic.
func FuzzDecodeCursor(f *testing.F) {
	for _, seed := range []string{
		"", "p0:", "p3:6b6579", "p-1:", "p9999999999999999999:", "q1:00", "p1:zz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cur, err := decodeCursor(s)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("decodeCursor(%q) returned untyped error %v", s, err)
			}
			return
		}
		if cur.part < 0 {
			t.Fatalf("decodeCursor(%q) accepted negative partition %d", s, cur.part)
		}
		again, err := decodeCursor(encodeCursor(cur))
		if err != nil || again.part != cur.part || !bytes.Equal(again.resume, cur.resume) {
			t.Fatalf("decodeCursor(%q) = %+v, re-encoded %q decodes to %+v, %v",
				s, cur, encodeCursor(cur), again, err)
		}
	})
}
