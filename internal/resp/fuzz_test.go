package resp

import (
	"bytes"
	"errors"
	"io"
	"runtime/metrics"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzRESPParse feeds arbitrary bytes to the RESP reader: the decoder
// must never panic, never allocate proportionally to an untrusted
// length header, and every value it does parse must survive a
// write/re-read round trip. The command decoder is held to the generic
// one: on every input ReadCommand accepts what Read plus the command
// shape check accepts, with the same name and arguments, and nothing
// else, however the input arrives: whole, in chunks whose sizes the
// input picks, or a byte at a time, so its one-pass path and its
// streaming path agree.
func FuzzRESPParse(f *testing.F) {
	seeds := [][]byte{
		[]byte("+OK\r\n"),
		[]byte("-ERR boom\r\n"),
		[]byte(":12345\r\n"),
		[]byte(":-1\r\n"),
		[]byte("$5\r\nhello\r\n"),
		[]byte("$0\r\n\r\n"),
		[]byte("$-1\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
		[]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"),
		[]byte("*-1\r\n"),
		[]byte("*0\r\n"),
		[]byte("$999999999999\r\nhi\r\n"),
		[]byte("*999999999\r\n"),
		[]byte("*1\r\n*1\r\n*1\r\n$1\r\nx\r\n"),
		bytes.Repeat([]byte("*1\r\n"), 100),
		[]byte("$3\r\nab\r\n"),
		[]byte("+no crlf"),
		{0, 1, 2, '\r', '\n'},
		// Command streams: pipelined, mixed case, unknown and over-long
		// names, signed and zero-padded lengths, the shapes the command
		// decoder must refuse.
		[]byte("*1\r\n$4\r\nping\r\n*2\r\n$3\r\ngEt\r\n$1\r\nk\r\n*1\r\n$4\r\nPING\r\n"),
		[]byte("*2\r\n$7\r\nfrobniz\r\n$0\r\n\r\n"),
		append([]byte("*1\r\n$40\r\n"), append(bytes.Repeat([]byte("n"), 40), '\r', '\n')...),
		[]byte("*+2\r\n$03\r\nGET\r\n$+1\r\nk\r\n"),
		[]byte("*1\r\n$000000000000000000003\r\nGET\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$-1\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n:5\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$1\r\nkXX"),
		[]byte("*1\r\n$3\r\nGETxx"),
		[]byte("*1048577\r\n$3\r\nGET\r\n"),
		// Lengths inside the limits on a stream that ends at once.
		[]byte("*2\r\n$3\r\nGET\r\n$400000000\r\nk\r\n"),
		[]byte("*1000000\r\n$3\r\nGET\r\n"),
		// Inputs that steer the command decoder off its one-pass path: a
		// command straddling the end of the 4 KiB buffer, more arguments
		// than that path takes, a 19-digit length, and empty strings;
		// then arguments too large together to share one allocation.
		bytes.Repeat([]byte("*3\r\n$3\r\nSET\r\n$8\r\nkey-0001\r\n$100\r\n"+strings.Repeat("v", 100)+"\r\n"), 40),
		[]byte("*12\r\n$4\r\nMGET\r\n" + strings.Repeat("$1\r\nk\r\n", 11)),
		[]byte("*2\r\n$3\r\nGET\r\n$0000000000000000001\r\nk\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$0\r\n\r\n*1\r\n$0\r\n\r\n"),
		[]byte("*4\r\n$3\r\nSET\r\n$1\r\nk\r\n$300\r\n" + strings.Repeat("v", 300) + "\r\n$0\r\n\r\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			v, err := r.Read()
			if err != nil {
				break
			}
			// Round trip: a successfully parsed value re-serializes and
			// re-parses to the same shape.
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.Write(v); err != nil {
				t.Fatalf("re-serialize parsed value: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			v2, err := NewReader(bytes.NewReader(buf.Bytes())).Read()
			if err != nil {
				t.Fatalf("re-parse own output %q: %v", buf.Bytes(), err)
			}
			if !valueEqual(v, v2) {
				t.Fatalf("round trip changed value: %#v -> %#v", v, v2)
			}
		}
		// The command decoder against the generic one, over the input
		// whole, in chunks and a byte at a time.
		for _, src := range []io.Reader{
			bytes.NewReader(data),
			&chunkReader{data: data, sizes: data},
			iotest.OneByteReader(bytes.NewReader(data)),
		} {
			checkCommands(t, NewReader(bytes.NewReader(data)), NewReader(src), len(data))
		}
	})
}

// checkCommands reads up to 64 commands from rc with ReadCommand and
// from ref with refReadCommand, and fails on any difference.
func checkCommands(t *testing.T, ref, rc *Reader, inputLen int) {
	t.Helper()
	before := heapAllocBytes()
	for i := 0; i < 64; i++ {
		want, wantErr := refReadCommand(ref)
		got, err := rc.ReadCommand()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("command %d: ReadCommand err %v, Read + shape check err %v", i, err, wantErr)
		}
		if err != nil {
			// The generic reader parses the whole value before its
			// shape is checked, so it may run out of input where the
			// command decoder has already seen the malformed element;
			// never the other way round.
			if errors.Is(wantErr, ErrProtocol) && !errors.Is(err, ErrProtocol) {
				t.Fatalf("command %d: ReadCommand err %v, want a protocol error (%v)", i, err, wantErr)
			}
			break
		}
		if got.Name != want.Name || len(got.Args) != len(want.Args) {
			t.Fatalf("command %d: ReadCommand %q %q, reference %q %q", i, got.Name, got.Args, want.Name, want.Args)
		}
		// Appending to an argument must not write into its neighbours,
		// though they may share an allocation.
		for j := range got.Args {
			_ = append(got.Args[j], '!')
		}
		for j := range got.Args {
			if !bytes.Equal(got.Args[j], want.Args[j]) {
				t.Fatalf("command %d arg %d: %q, reference %q", i, j, got.Args[j], want.Args[j])
			}
		}
	}
	// Both decoders allocate for the bytes that arrived, never for
	// the lengths a header claims.
	if grown := heapAllocBytes() - before; grown > 1<<20+64*uint64(inputLen) {
		t.Fatalf("decoding %d bytes allocated %d", inputLen, grown)
	}
}

// chunkReader returns data in pieces of 1 to 256 bytes, their sizes
// taken in turn from sizes.
type chunkReader struct {
	data, sizes []byte
	next        int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(1+int(c.sizes[c.next%len(c.sizes)]), len(p), len(c.data))
	c.next++
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// heapAllocBytes is the process's cumulative heap allocation; large
// allocations are counted as they happen.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// refReadCommand is the command decoder ReadCommand replaced: the
// generic parser, then the shape check.
func refReadCommand(r *Reader) (Command, error) {
	v, err := r.Read()
	if err != nil {
		return Command{}, err
	}
	if v.Kind != Array || v.Null || len(v.Array) == 0 {
		return Command{}, ErrProtocol
	}
	for _, el := range v.Array {
		if el.Kind != BulkString || el.Null {
			return Command{}, ErrProtocol
		}
	}
	cmd := Command{Name: upper(string(v.Array[0].Str))}
	for _, el := range v.Array[1:] {
		cmd.Args = append(cmd.Args, el.Str)
	}
	return cmd, nil
}

func valueEqual(a, b Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null || a.Int != b.Int {
		return false
	}
	if !bytes.Equal(a.Str, b.Str) {
		return false
	}
	if len(a.Array) != len(b.Array) {
		return false
	}
	for i := range a.Array {
		if !valueEqual(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

func TestReaderRejectsHostileHeaders(t *testing.T) {
	cases := []string{
		"*999999999999\r\n",         // array count over limit
		"$999999999999999\r\nx\r\n", // bulk length over limit
		string(bytes.Repeat([]byte("*1\r\n"), 64)) + "$1\r\nx\r\n", // nesting
	}
	for _, c := range cases {
		if _, err := NewReader(bytes.NewReader([]byte(c))).Read(); err == nil {
			t.Fatalf("hostile input %q parsed without error", c)
		}
	}
}
