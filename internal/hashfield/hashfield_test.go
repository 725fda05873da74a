package hashfield

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// crasher is the 18-byte value that took the server down before the
// codec compared lengths without wrapping: one field whose declared
// length is 2^64-1, so that prefix-size + length wrapped to 9 and passed
// the bound (the parent panicked with "slice bounds out of range [10:9]").
var crasher = []byte("\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00\x00\x00")

func TestDecodeRejectsCraftedLengths(t *testing.T) {
	for name, in := range map[string][]byte{
		"wrapping field length": crasher,
		"wrapping value length": []byte("\x01\x01f\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00"),
		"count beyond the data": []byte("\xff\xff\xff\xff\x0f\x01f\x01v"),
		"truncated header":      []byte("\x80"),
		"plain string":          []byte("hello world"),
		"trailing bytes":        append(Encode(map[string][]byte{"f": []byte("v")}), 0),
		"repeated field":        []byte("\x02\x01f\x01a\x01f\x01b"),
	} {
		if m, err := Decode(in); !errors.Is(err, ErrNotHash) {
			t.Errorf("%s: Decode = %v, %v; want ErrNotHash", name, m, err)
		}
	}
}

func TestEncodeIsSortedAndRoundTrips(t *testing.T) {
	m := map[string][]byte{"b": []byte("2"), "a": []byte("1"), "": {}, "c": nil}
	enc := Encode(m)
	if want := []byte("\x04\x00\x00\x01a\x011\x01b\x012\x01c\x00"); !bytes.Equal(enc, want) {
		t.Fatalf("Encode = %q, want %q", enc, want)
	}
	got, err := Decode(enc)
	if err != nil || len(got) != 4 || string(got["a"]) != "1" || string(got["b"]) != "2" {
		t.Fatalf("Decode = %v, %v", got, err)
	}
	if empty, err := Decode(nil); err != nil || len(empty) != 0 {
		t.Fatalf("Decode(nil) = %v, %v; want the empty hash", empty, err)
	}
}

// FuzzHashCodec feeds the decoder arbitrary stored values — any client
// can SET the bytes a later HGET decodes. It must never panic; what it
// accepts must survive re-encoding exactly; and the encoding must be
// canonical: one hash, one byte string.
func FuzzHashCodec(f *testing.F) {
	f.Add(crasher)
	f.Add([]byte{})
	f.Add(Encode(map[string][]byte{"f": []byte("v"), "g": {}}))
	f.Add([]byte("\x02\x01b\x011\x01a\x012")) // valid but unsorted: an older writer's order
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrNotHash) {
				t.Fatalf("Decode(%q) returned untyped error %v", data, err)
			}
			return
		}
		enc := Encode(m)
		again, err := Decode(enc)
		if err != nil || len(again) != len(m) {
			t.Fatalf("Decode(Encode(%v)) = %v, %v", m, again, err)
		}
		for f, v := range m {
			if w, ok := again[f]; !ok || !bytes.Equal(v, w) {
				t.Fatalf("field %q: %q became %q (present %v)", f, v, w, ok)
			}
		}
		if !reflect.DeepEqual(enc, Encode(again)) {
			t.Fatalf("encoding is not canonical: %q vs %q", enc, Encode(again))
		}
	})
}
