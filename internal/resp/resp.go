package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Kind identifies a RESP value type.
type Kind byte

// RESP value kinds.
const (
	SimpleString Kind = '+'
	Error        Kind = '-'
	Integer      Kind = ':'
	BulkString   Kind = '$'
	Array        Kind = '*'
)

// Value is one RESP value.
type Value struct {
	Kind  Kind
	Str   []byte  // SimpleString, Error, BulkString payload
	Int   int64   // Integer payload
	Array []Value // Array elements
	Null  bool    // null bulk string / null array
}

// Convenience constructors. A reply's payload is read-only: OK and Pong
// share one payload between all their replies, and Bulk wraps the
// caller's bytes (often a cached value) without copying them, so
// whoever receives a Value must not write through Str.

var okPayload, pongPayload = []byte("OK"), []byte("PONG")

// OK is the +OK simple string reply. Its payload is shared: do not
// mutate it.
func OK() Value { return Value{Kind: SimpleString, Str: okPayload} }

// Pong is the +PONG simple string reply. Its payload is shared: do not
// mutate it.
func Pong() Value { return Value{Kind: SimpleString, Str: pongPayload} }

// Str returns a simple-string value.
func Str(s string) Value { return Value{Kind: SimpleString, Str: []byte(s)} }

// Err returns an error value.
func Err(format string, args ...interface{}) Value {
	return Value{Kind: Error, Str: []byte(fmt.Sprintf(format, args...))}
}

// Int64 returns an integer value.
func Int64(n int64) Value { return Value{Kind: Integer, Int: n} }

// Bulk returns a bulk-string value that aliases b: neither side may
// mutate b while the value is in use.
func Bulk(b []byte) Value { return Value{Kind: BulkString, Str: b} }

// BulkStr returns a bulk-string value from a string.
func BulkStr(s string) Value { return Value{Kind: BulkString, Str: []byte(s)} }

// Null returns the null bulk string ($-1).
func Null() Value { return Value{Kind: BulkString, Null: true} }

// Arr returns an array value.
func Arr(vs ...Value) Value { return Value{Kind: Array, Array: vs} }

// IsError reports whether the value is an error reply.
func (v Value) IsError() bool { return v.Kind == Error }

// Text returns the value's string payload (Str for string kinds, the
// decimal for integers).
func (v Value) Text() string {
	switch v.Kind {
	case Integer:
		return strconv.FormatInt(v.Int, 10)
	default:
		return string(v.Str)
	}
}

var (
	// ErrProtocol reports malformed RESP input.
	ErrProtocol = errors.New("resp: protocol error")
	crlf        = []byte("\r\n")
)

// maxBulkLen bounds bulk strings to 512 MiB, matching Redis.
const maxBulkLen = 512 << 20

// maxArrayLen bounds array element counts (Redis's multibulk limit):
// a crafted `*<huge>` header must not pre-allocate gigabytes.
const maxArrayLen = 1 << 20

// maxNestingDepth bounds array nesting. Parsing recurses per level, so
// without a cap a stream of `*1\r\n` prefixes overflows the stack.
const maxNestingDepth = 32

// Writer serializes RESP values onto a buffered writer.
type Writer struct {
	w *bufio.Writer
	// head is where a length or integer line is formatted: a type byte,
	// at most 20 characters of int64 and CRLF.
	head [24]byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// writeHead writes a length or integer line: kind, n in decimal, CRLF.
func (w *Writer) writeHead(kind Kind, n int64) error {
	line := strconv.AppendInt(append(w.head[:0], byte(kind)), n, 10)
	_, err := w.w.Write(append(line, crlf...))
	return err
}

// Write serializes one value (without flushing).
func (w *Writer) Write(v Value) error {
	switch v.Kind {
	case SimpleString, Error:
		w.w.WriteByte(byte(v.Kind))
		w.w.Write(v.Str)
		_, err := w.w.Write(crlf)
		return err
	case Integer:
		return w.writeHead(Integer, v.Int)
	case BulkString:
		if v.Null {
			_, err := w.w.WriteString("$-1\r\n")
			return err
		}
		w.writeHead(BulkString, int64(len(v.Str)))
		w.w.Write(v.Str)
		_, err := w.w.Write(crlf)
		return err
	case Array:
		if v.Null {
			_, err := w.w.WriteString("*-1\r\n")
			return err
		}
		if err := w.writeHead(Array, int64(len(v.Array))); err != nil {
			return err
		}
		for _, el := range v.Array {
			if err := w.Write(el); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrProtocol, v.Kind)
	}
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader parses RESP values from a buffered reader.
type Reader struct {
	r *bufio.Reader
	// args backs Command.Args, reused from one ReadCommand to the next.
	args [][]byte
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// readBulk reads n payload bytes plus the trailing CRLF and returns the
// payload, in a single allocation unless it is larger than a chunk.
// The buffer grows in bounded chunks as data actually arrives, so a
// crafted length prefix on a short stream fails with EOF instead of
// pre-allocating up to maxBulkLen.
func (r *Reader) readBulk(n int64) ([]byte, error) {
	const chunk = 64 << 10
	total := n + 2
	initial := total
	if initial > chunk {
		initial = chunk
	}
	buf := make([]byte, 0, initial)
	for int64(len(buf)) < total {
		step := total - int64(len(buf))
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r.r, buf[start:]); err != nil {
			return nil, err
		}
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
	}
	return buf[:n], nil
}

// Read parses one RESP value.
func (r *Reader) Read() (Value, error) { return r.read(0) }

func (r *Reader) read(depth int) (Value, error) {
	if depth > maxNestingDepth {
		return Value{}, fmt.Errorf("%w: nesting too deep", ErrProtocol)
	}
	line, err := r.readLine()
	if err != nil {
		return Value{}, err
	}
	if len(line) == 0 {
		return Value{}, fmt.Errorf("%w: empty line", ErrProtocol)
	}
	kind, rest := Kind(line[0]), line[1:]
	switch kind {
	case SimpleString, Error:
		return Value{Kind: kind, Str: append([]byte(nil), rest...)}, nil
	case Integer:
		n, ok := parseInt(rest)
		if !ok {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, rest)
		}
		return Value{Kind: Integer, Int: n}, nil
	case BulkString:
		n, ok := parseInt(rest)
		if !ok || n < -1 || n > maxBulkLen {
			return Value{}, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, rest)
		}
		if n == -1 {
			return Null(), nil
		}
		buf, err := r.readBulk(n)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: BulkString, Str: buf}, nil
	case Array:
		n, ok := parseInt(rest)
		if !ok || n < -1 || n > maxArrayLen {
			return Value{}, fmt.Errorf("%w: bad array length %q", ErrProtocol, rest)
		}
		if n == -1 {
			return Value{Kind: Array, Null: true}, nil
		}
		// Capacity grows with parsed elements, not the untrusted header.
		els := make([]Value, 0, min64(n, 64))
		for i := int64(0); i < n; i++ {
			el, err := r.read(depth + 1)
			if err != nil {
				return Value{}, err
			}
			els = append(els, el)
		}
		return Value{Kind: Array, Array: els}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown type byte %q", ErrProtocol, kind)
	}
}

// Command is a parsed client command: a name plus raw byte arguments.
// The arguments are fresh memory, the receiver's to keep, and may share
// one allocation per command; each has its capacity capped at its
// length, so an append to one never writes into another. The Args
// slice holding them belongs to the Reader and is overwritten by its
// next ReadCommand.
type Command struct {
	Name string
	Args [][]byte
}

// commandNames are the names ReadCommand returns without building a
// string: the bytes on the wire are matched against them, ignoring
// case, in the read buffer. Any other name parses the same way at the
// cost of one allocation, so the table only has to cover the commands
// worth the saving; the hottest come first.
var commandNames = [...]string{
	"GET", "SET", "DEL", "EXISTS", "MGET", "MSET", "PING",
	"HGET", "HSET", "HDEL", "HLEN", "HGETALL",
	"TTL", "PTTL", "EXPIRE", "PERSIST",
	"SCAN", "KEYS", "DBSIZE", "HOTKEYS", "CHANGES",
	"AUTH", "READONLY", "READWRITE", "COMMAND", "RESET", "QUIT",
	"SUBSCRIBE", "UNSUBSCRIBE", "PSUBSCRIBE", "PUNSUBSCRIBE",
}

// commandName returns the upper-case name b spells: the entry of
// commandNames it matches in any case, without allocating, or a new
// string.
func commandName(b []byte) string {
	for _, name := range commandNames[:] { // a slice: ranging over the array would copy it
		if len(name) == len(b) && equalFold(name, b) {
			return name
		}
	}
	return upper(string(b))
}

// maxNameLen bounds the names looked up in place; a longer name is read
// like an argument.
const maxNameLen = 32

// maxFastArgs bounds the arguments of a command parsed in one pass over
// the read buffer.
const maxFastArgs = 8

// maxSharedBytes bounds the argument payloads of a command that share
// one allocation, and so what one kept argument can keep alive beyond
// its own bytes: a cache charges a value only its length.
const maxSharedBytes = 256

// maxKeptArgs bounds the Args backing array a Reader keeps between
// commands, so one huge MSET does not pin its slice for the life of the
// connection.
const maxKeptArgs = 1024

// ReadCommand parses a client command (a non-empty array of non-null
// bulk strings). It accepts exactly the inputs Read accepts with that
// shape. A command that lies whole in the read buffer in the usual form
// (lengths of at most 18 plain digits, at most maxFastArgs arguments)
// is parsed in one pass there, and its arguments are copied out, in one
// allocation when they total at most maxSharedBytes; any other input is
// read piece by piece, each argument in an allocation of its own.
func (r *Reader) ReadCommand() (Command, error) {
	if cap(r.args) > maxKeptArgs {
		r.args = nil
	}
	r.args = r.args[:0]
	// With the buffer empty, Peek fills it from the connection, which
	// flushes the replies buffered so far before it waits.
	if _, err := r.r.Peek(1); err != nil {
		return Command{}, err
	}
	if cmd, ok := r.readBuffered(); ok {
		return cmd, nil
	}
	return r.readStreaming()
}

// readBuffered parses one command from the bytes already in the read
// buffer and consumes them. It reports false, having consumed and
// allocated nothing, when the buffer does not start with a whole
// command in the usual form; the streaming path then decides.
func (r *Reader) readBuffered() (Command, bool) {
	b, _ := r.r.Peek(r.r.Buffered())
	n, p := lenLine(b, Array)
	if p == 0 || n < 1 || n > maxFastArgs+1 {
		return Command{}, false
	}
	// Find every element and check its CRLFs before anything is
	// allocated or consumed.
	var els [maxFastArgs + 1][]byte
	total := 0
	for i := range int(n) {
		l, used := lenLine(b[p:], BulkString)
		end := p + used + int(l)
		if used == 0 || l > maxBulkLen || l > int64(len(b)-p-used-2) || b[end] != '\r' || b[end+1] != '\n' {
			return Command{}, false
		}
		els[i] = b[p+used : end]
		total += int(l)
		p = end + 2
	}
	cmd := Command{Name: commandName(els[0])}
	// A kept argument keeps its whole allocation alive, so the
	// arguments share one only when together they are small.
	var buf []byte
	if size := total - len(els[0]); size <= maxSharedBytes {
		buf = make([]byte, 0, size)
	}
	for _, el := range els[1:n] {
		if buf == nil {
			r.args = append(r.args, bytes.Clone(el))
			continue
		}
		buf = append(buf, el...)
		r.args = append(r.args, buf[len(buf)-len(el):len(buf):len(buf)])
	}
	cmd.Args = r.args
	r.r.Discard(p) // all p bytes are buffered, so Discard cannot fail
	return cmd, true
}

// readStreaming parses a command as it arrives, refilling the read
// buffer as it goes. It parses the length lines and the command name
// in the read buffer, so the argument payloads are its only
// allocations.
func (r *Reader) readStreaming() (Command, error) {
	n, err := r.readLen(Array)
	if err != nil {
		return Command{}, err
	}
	if n < 1 || n > maxArrayLen {
		return Command{}, fmt.Errorf("%w: command must be a non-empty array", ErrProtocol)
	}
	name, err := r.readName()
	if err != nil {
		return Command{}, err
	}
	// The slice grows with the arguments parsed, not the untrusted count.
	for i := int64(1); i < n; i++ {
		arg, err := r.readArg()
		if err != nil {
			return Command{}, err
		}
		r.args = append(r.args, arg)
	}
	return Command{Name: name, Args: r.args}, nil
}

// lenLine parses a length line of the given kind at the start of b in
// its usual form: the kind byte, 1 to 18 digits, CRLF. It returns the
// length and the bytes the line takes, or a zero size when b does not
// start with such a line. Eighteen digits cannot overflow an int64, and
// parseInt reads them alike, so both decoders agree on every line it
// accepts.
func lenLine(b []byte, kind Kind) (n int64, size int) {
	if len(b) == 0 || Kind(b[0]) != kind {
		return 0, 0
	}
	i := 1
	for ; i < len(b) && i <= 18 && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if i == 1 || i+1 >= len(b) || b[i] != '\r' || b[i+1] != '\n' {
		return 0, 0
	}
	return n, i + 2
}

// readLen reads one length line of the given kind ("*3", "$5"). The
// line is parsed where it lies in the read buffer; one that outgrows
// the buffer is malformed, as parseInt takes 20 bytes at most.
func (r *Reader) readLen(kind Kind) (int64, error) {
	line, err := r.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return 0, fmt.Errorf("%w: length line too long", ErrProtocol)
	}
	if err != nil {
		return 0, err
	}
	if n, size := lenLine(line, kind); size == len(line) {
		return n, nil
	}
	if len(line) < 3 || line[len(line)-2] != '\r' || Kind(line[0]) != kind {
		return 0, fmt.Errorf("%w: expected a %q length line, got %q", ErrProtocol, kind, line)
	}
	n, ok := parseInt(line[1 : len(line)-2])
	if !ok {
		return 0, fmt.Errorf("%w: bad length %q", ErrProtocol, line)
	}
	return n, nil
}

// readBulkLen reads the length line of a non-null bulk string.
func (r *Reader) readBulkLen() (int64, error) {
	n, err := r.readLen(BulkString)
	if err == nil && (n < 0 || n > maxBulkLen) {
		err = fmt.Errorf("%w: command elements must be bulk strings", ErrProtocol)
	}
	return n, err
}

// readArg reads one non-null bulk string into a fresh allocation.
func (r *Reader) readArg() ([]byte, error) {
	n, err := r.readBulkLen()
	if err != nil {
		return nil, err
	}
	return r.readBulk(n)
}

// readName reads the command name, a bulk string, upper-cased.
func (r *Reader) readName() (string, error) {
	n, err := r.readBulkLen()
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		b, err := r.readBulk(n)
		return upper(string(b)), err
	}
	b, err := r.r.Peek(int(n) + 2)
	if err != nil {
		return "", err
	}
	if b[n] != '\r' || b[n+1] != '\n' {
		return "", fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
	}
	name := commandName(b[:n])
	_, err = r.r.Discard(int(n) + 2)
	return name, err
}

// equalFold reports whether b is the upper-case ASCII name in any case.
func equalFold(name string, b []byte) bool {
	for i := 0; i < len(name); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// parseInt is strconv.ParseInt for the number on a length or integer
// line, from no more than 20 bytes: the longest int64 has 19 digits and
// a sign, so a longer line is zero padding at best, and both decoders
// refuse it alike. Within that bound the string conversion stays on
// the stack.
func parseInt(b []byte) (int64, bool) {
	if len(b) > 20 {
		return 0, false
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	return n, err == nil
}

// WriteCommand serializes a command as an array of bulk strings.
func (w *Writer) WriteCommand(name string, args ...[]byte) error {
	els := make([]Value, 0, len(args)+1)
	els = append(els, BulkStr(name))
	for _, a := range args {
		els = append(els, Bulk(a))
	}
	if err := w.Write(Arr(els...)); err != nil {
		return err
	}
	return w.Flush()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// upper uppercases ASCII without allocation for already-upper input.
func upper(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'a' && s[i] <= 'z' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
