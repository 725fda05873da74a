// Package hashfield is the stored form of a Redis hash: the whole hash
// is one value under its key — count uvarint, then per field
// flen uvarint | field | vlen uvarint | value, fields in sorted order.
// The DataNode decodes it to run a field mutation, the proxy to answer
// a field read; both planes import this one codec.
package hashfield

import (
	"encoding/binary"
	"errors"
	"sort"
)

// ErrNotHash is returned by Decode for a value that is not an encoded
// hash (a plain string a client SET, or a corrupt record).
var ErrNotHash = errors.New("hashfield: value is not a hash")

// Encode renders m with its fields in sorted order, so equal hashes are
// equal bytes on every replica.
func Encode(m map[string][]byte) []byte {
	fields := make([]string, 0, len(m))
	for f := range m {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	buf := binary.AppendUvarint(nil, uint64(len(m)))
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
		buf = binary.AppendUvarint(buf, uint64(len(m[f])))
		buf = append(buf, m[f]...)
	}
	return buf
}

// Decode parses an encoded hash; the empty value is the empty hash. The
// input is a stored value any client may have written, so every declared
// length is checked against the bytes that remain.
func Decode(data []byte) (map[string][]byte, error) {
	m := map[string][]byte{}
	if len(data) == 0 {
		return m, nil
	}
	count, s := binary.Uvarint(data)
	// A field takes at least two bytes (its two length prefixes).
	if s <= 0 || count > uint64(len(data)-s)/2 {
		return nil, ErrNotHash
	}
	data = data[s:]
	for i := uint64(0); i < count; i++ {
		var f, v []byte
		var ok bool
		if f, data, ok = chunk(data); !ok {
			return nil, ErrNotHash
		}
		if v, data, ok = chunk(data); !ok {
			return nil, ErrNotHash
		}
		m[string(f)] = append([]byte(nil), v...)
	}
	if len(data) != 0 || uint64(len(m)) != count {
		return nil, ErrNotHash // trailing bytes or a repeated field: not our encoding
	}
	return m, nil
}

// chunk splits one length-prefixed byte string off the front of data.
func chunk(data []byte) (head, rest []byte, ok bool) {
	n, s := binary.Uvarint(data)
	if s <= 0 || n > uint64(len(data)-s) {
		return nil, nil, false
	}
	return data[s : s+int(n)], data[s+int(n):], true
}
