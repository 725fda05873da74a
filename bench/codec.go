package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
)

// The generator owns its wire codec so that a change to internal/resp
// moves the server and never the load generator: commands are encoded
// into a reusable per-connection buffer and replies are scanned in
// place, both without allocating.

// keyLen is len("key-%08d").
const keyLen = 12

// valueHeader is key index (4) + sequence (8) + CRC-32C (4).
const valueHeader = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendKey appends "key-%08d".
func appendKey(b []byte, idx uint32) []byte {
	var d [8]byte
	for i := 7; i >= 0; i-- {
		d[i] = byte('0' + idx%10)
		idx /= 10
	}
	b = append(b, "key-"...)
	return append(b, d[:]...)
}

// appendUint appends n in decimal.
func appendUint(b []byte, n int) []byte {
	var d [20]byte
	i := len(d)
	for {
		i--
		d[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(b, d[i:]...)
}

// appendGet appends the RESP encoding of GET key-idx.
func appendGet(b []byte, idx uint32) []byte {
	b = append(b, "*2\r\n$3\r\nGET\r\n$12\r\n"...)
	b = appendKey(b, idx)
	return append(b, '\r', '\n')
}

// values builds and checks the self-describing values the workloads
// store: a value names its key, the writing connection's sequence
// number, and carries a CRC over a fill that is a window into a seeded
// random template, so a reply can be checked for the right key, the
// right write, the right length and an intact body without keeping a
// copy of what was written.
type values struct {
	size     int
	template []byte // 2*size seeded random bytes
}

func newValues(size int, seed int64) *values {
	if size < valueHeader {
		panic("bench: value size below header")
	}
	t := make([]byte, 2*size)
	rand.New(rand.NewSource(seed)).Read(t)
	return &values{size: size, template: t}
}

// fill returns the body a value written for (idx, seq) must carry.
func (v *values) fill(idx uint32, seq uint64) []byte {
	off := int((uint64(idx)*31 + seq) % uint64(v.size))
	return v.template[off : off+v.size-valueHeader]
}

// append appends the value for (idx, seq).
func (v *values) append(b []byte, idx uint32, seq uint64) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, idx)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = append(b, 0, 0, 0, 0)
	b = append(b, v.fill(idx, seq)...)
	sum := crc32.Update(crc32.Checksum(b[start:start+12], castagnoli), castagnoli, b[start+valueHeader:])
	binary.LittleEndian.PutUint32(b[start+12:], sum)
	return b
}

// check verifies that got is the value written for idx and returns its
// sequence number.
func (v *values) check(got []byte, idx uint32) (seq uint64, err error) {
	if len(got) != v.size {
		return 0, fmt.Errorf("value length %d, want %d", len(got), v.size)
	}
	if k := binary.LittleEndian.Uint32(got); k != idx {
		return 0, fmt.Errorf("value names key %d, want %d", k, idx)
	}
	seq = binary.LittleEndian.Uint64(got[4:])
	sum := crc32.Update(crc32.Checksum(got[:12], castagnoli), castagnoli, got[valueHeader:])
	if sum != binary.LittleEndian.Uint32(got[12:]) {
		return seq, errors.New("value checksum mismatch")
	}
	if !bytes.Equal(got[valueHeader:], v.fill(idx, seq)) {
		return seq, errors.New("value fill differs from the template")
	}
	return seq, nil
}

// appendSetHeader appends SET key-idx up to the value's length line;
// the caller appends size value bytes and CRLF.
func appendSetHeader(b []byte, idx uint32, size int) []byte {
	b = append(b, "*3\r\n$3\r\nSET\r\n$12\r\n"...)
	b = appendKey(b, idx)
	b = append(b, "\r\n$"...)
	b = appendUint(b, size)
	return append(b, '\r', '\n')
}

// appendSet appends the RESP encoding of SET key-idx <value(idx, seq)>.
func (v *values) appendSet(b []byte, idx uint32, seq uint64) []byte {
	b = appendSetHeader(b, idx, v.size)
	b = v.append(b, idx, seq)
	return append(b, '\r', '\n')
}

// replyKind classifies one scanned reply.
type replyKind uint8

const (
	replyOK        replyKind = iota // +OK
	replyBulk                       // $n payload
	replyNull                       // $-1
	replyThrottled                  // -THROTTLED ...
	replyError                      // any other - reply
)

// replyScanner reads the replies the workloads can receive: simple
// strings, bulk strings and errors. Arrays and integers never occur,
// so meeting one is a protocol failure.
type replyScanner struct {
	r    *bufio.Reader
	body []byte // reused bulk payload buffer
}

func newReplyScanner(r io.Reader) *replyScanner {
	return &replyScanner{r: bufio.NewReaderSize(r, 64<<10)}
}

// next scans one reply. The returned payload (bulk body or error text)
// is valid until the following call.
func (s *replyScanner) next() (replyKind, []byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return 0, nil, fmt.Errorf("reply line %q lacks CRLF", line)
	}
	text := line[1 : len(line)-2]
	switch line[0] {
	case '+':
		if string(text) != "OK" {
			return 0, nil, fmt.Errorf("unexpected simple string %q", text)
		}
		return replyOK, nil, nil
	case '-':
		if bytes.HasPrefix(text, []byte("THROTTLED")) {
			return replyThrottled, text, nil
		}
		return replyError, text, nil
	case '$':
		if string(text) == "-1" {
			return replyNull, nil, nil
		}
		n := 0
		for _, c := range text {
			if c < '0' || c > '9' || n > 1<<24 {
				return 0, nil, fmt.Errorf("bad bulk length %q", text)
			}
			n = n*10 + int(c-'0')
		}
		if cap(s.body) < n+2 {
			s.body = make([]byte, n+2)
		}
		buf := s.body[:n+2]
		if _, err := io.ReadFull(s.r, buf); err != nil {
			return 0, nil, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return 0, nil, errors.New("bulk payload lacks CRLF")
		}
		return replyBulk, buf[:n], nil
	default:
		return 0, nil, fmt.Errorf("unexpected reply type %q", line[0])
	}
}
