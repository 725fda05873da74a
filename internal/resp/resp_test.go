package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(v); err != nil {
		t.Fatalf("Write: %v", err)
	}
	w.Flush()
	got, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func TestRoundTripSimpleString(t *testing.T) {
	got := roundTrip(t, Str("OK"))
	if got.Kind != SimpleString || string(got.Str) != "OK" {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripError(t *testing.T) {
	got := roundTrip(t, Err("ERR something %d", 42))
	if !got.IsError() || string(got.Str) != "ERR something 42" {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripInteger(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		got := roundTrip(t, Int64(n))
		if got.Kind != Integer || got.Int != n {
			t.Fatalf("got %+v for %d", got, n)
		}
	}
}

func TestRoundTripBulk(t *testing.T) {
	got := roundTrip(t, Bulk([]byte("hello\r\nworld"))) // embedded CRLF must survive
	if got.Kind != BulkString || string(got.Str) != "hello\r\nworld" {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripEmptyBulk(t *testing.T) {
	got := roundTrip(t, Bulk(nil))
	if got.Null || len(got.Str) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripNull(t *testing.T) {
	got := roundTrip(t, Null())
	if !got.Null {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripArray(t *testing.T) {
	v := Arr(Int64(1), BulkStr("two"), Arr(Str("nested")))
	got := roundTrip(t, v)
	if got.Kind != Array || len(got.Array) != 3 {
		t.Fatalf("got %+v", got)
	}
	if got.Array[2].Array[0].Text() != "nested" {
		t.Fatalf("nested = %+v", got.Array[2])
	}
}

func TestRoundTripNullArray(t *testing.T) {
	got := roundTrip(t, Value{Kind: Array, Null: true})
	if got.Kind != Array || !got.Null {
		t.Fatalf("got %+v", got)
	}
}

func TestPropertyBulkRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Write(Bulk(payload))
		w.Flush()
		got, err := NewReader(&buf).Read()
		return err == nil && bytes.Equal(got.Str, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadCommand(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteCommand("set", []byte("key"), []byte("value"))
	cmd, err := NewReader(&buf).ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Name != "SET" {
		t.Fatalf("Name = %q (should be uppercased)", cmd.Name)
	}
	if len(cmd.Args) != 2 || string(cmd.Args[0]) != "key" {
		t.Fatalf("Args = %v", cmd.Args)
	}
}

// TestReadCommandArgsAreOwned: the caches keep SET values and keys, so
// an argument handed out by ReadCommand must never change afterwards —
// not when later commands reuse the Args slice, and not when the read
// buffer is refilled over the bytes it was parsed from.
func TestReadCommandArgsAreOwned(t *testing.T) {
	const commands = 2000 // ~100 KB of wire: the 4 KiB buffer turns over many times
	var wire bytes.Buffer
	w := NewWriter(&wire)
	for i := 0; i < commands; i++ {
		w.WriteCommand("set", []byte(fmt.Sprint("key-", i)), []byte(fmt.Sprint("value-", i, "-", strings.Repeat("x", i%64))))
	}
	r := NewReader(&wire)
	held := make([][][]byte, commands)
	for i := range held {
		cmd, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		if cmd.Name != "SET" || len(cmd.Args) != 2 {
			t.Fatalf("command %d = %q %q", i, cmd.Name, cmd.Args)
		}
		held[i] = [][]byte{cmd.Args[0], cmd.Args[1]} // the payloads, not the slice
	}
	for i, args := range held {
		key, value := fmt.Sprint("key-", i), fmt.Sprint("value-", i, "-", strings.Repeat("x", i%64))
		if string(args[0]) != key || string(args[1]) != value {
			t.Fatalf("command %d's arguments changed after later reads: %q", i, args)
		}
	}
}

// TestKeptArgumentPinsNoLargeNeighbour: a cache charges a kept value
// only its length, so a small argument of a command parsed in one pass
// must not share an allocation with a large one. Each MSET here lies
// whole in a connection-sized read buffer; keeping its 1-byte value
// must not keep its 32 KiB neighbour alive.
func TestKeptArgumentPinsNoLargeNeighbour(t *testing.T) {
	const commands, big = 64, 32 << 10
	var wire bytes.Buffer
	NewWriter(&wire).WriteCommand("MSET", []byte("k1"), []byte("a"), []byte("k2"), bytes.Repeat([]byte("v"), big))
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	held := make([][]byte, commands)
	before := heap()
	for i := range held {
		r := &Reader{r: bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), connBufSize)}
		cmd, err := r.ReadCommand()
		if err != nil || len(cmd.Args) != 4 || string(cmd.Args[1]) != "a" {
			t.Fatalf("decoded %q %q, %v", cmd.Name, cmd.Args, err)
		}
		held[i] = cmd.Args[1]
	}
	grown := heap() - before
	runtime.KeepAlive(held)
	if grown > commands*big/8 {
		t.Errorf("%d kept 1-byte arguments hold %d bytes of heap: each keeps its %d-byte neighbour alive", commands, grown, big)
	}
}

// TestCodecAllocations pins the hot path's allocation budget: a decoded
// command costs one allocation for all its argument payloads (the few
// commands that straddle a buffer refill cost one per argument, which
// the average rounds away), and encoding a reply costs nothing.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	decode := func(cmd string) float64 {
		const runs = 200
		r := NewReader(strings.NewReader(strings.Repeat(cmd, runs+1)))
		return testing.AllocsPerRun(runs, func() {
			if _, err := r.ReadCommand(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := decode("*2\r\n$3\r\nget\r\n$8\r\nkey-0001\r\n"); n > 1 {
		t.Errorf("decoding GET: %v allocations, want at most 1", n)
	}
	if n := decode("*3\r\n$3\r\nSET\r\n$8\r\nkey-0001\r\n$16\r\n0123456789abcdef\r\n"); n > 1 {
		t.Errorf("decoding SET: %v allocations, want at most 1", n)
	}
	w := NewWriter(io.Discard)
	for name, v := range map[string]Value{
		"bulk": Bulk([]byte("0123456789abcdef")), "OK": OK(), "integer": Int64(-1234567),
	} {
		n := testing.AllocsPerRun(200, func() {
			if err := w.Write(v); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("encoding a %s reply: %v allocations, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = OK(), Pong() }); n != 0 {
		t.Errorf("OK and Pong: %v allocations, want 0", n)
	}
}

func TestReadCommandRejectsNonArray(t *testing.T) {
	r := NewReader(strings.NewReader("+OK\r\n"))
	if _, err := r.ReadCommand(); err == nil {
		t.Fatal("accepted non-array command")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range []string{"@bad\r\n", ":\r\nnotanint\r\n", "$abc\r\n", "*x\r\n", "$5\r\nab\r\n"} {
		r := NewReader(strings.NewReader(in))
		if _, err := r.Read(); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestReadRejectsMissingCRLF(t *testing.T) {
	r := NewReader(strings.NewReader("+OK\n"))
	if _, err := r.Read(); err == nil {
		t.Fatal("accepted bare LF")
	}
}

func TestTextHelper(t *testing.T) {
	if Int64(7).Text() != "7" {
		t.Fatal("Int text")
	}
	if BulkStr("x").Text() != "x" {
		t.Fatal("Bulk text")
	}
}

func TestUpper(t *testing.T) {
	if upper("get") != "GET" || upper("GET") != "GET" || upper("GeT1") != "GET1" {
		t.Fatal("upper wrong")
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	srv := NewServer(HandlerFunc(func(cmd Command) Value {
		switch cmd.Name {
		case "PING":
			return Pong()
		case "ECHO":
			return Bulk(cmd.Args[0])
		default:
			return Err("ERR unknown command '%s'", cmd.Name)
		}
	}))
	srv.Logf = func(string, ...interface{}) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v, err := c.DoStrings("ping")
	if err != nil || v.Text() != "PONG" {
		t.Fatalf("PING = %+v, %v", v, err)
	}
	v, err = c.DoStrings("echo", "hello")
	if err != nil || v.Text() != "hello" {
		t.Fatalf("ECHO = %+v, %v", v, err)
	}
	v, err = c.DoStrings("nope")
	if err != nil || !v.IsError() {
		t.Fatalf("unknown = %+v, %v", v, err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv := NewServer(HandlerFunc(func(cmd Command) Value {
		return Bulk(cmd.Args[0])
	}))
	srv.Logf = func(string, ...interface{}) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				msg := []byte{byte(i), byte(j)}
				v, err := c.Do("ECHO", msg)
				if err != nil || !bytes.Equal(v.Str, msg) {
					t.Errorf("echo mismatch: %v %v", v, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(HandlerFunc(func(Command) Value { return OK() }))
	srv.Logf = func(string, ...interface{}) {}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseLeavesNoGoroutines: Close stops the accept loop and
// every connection's goroutine, including connections whose clients are
// still open and idle.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := NewServer(echoHandler)
	srv.Logf = func(string, ...interface{}) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if v, err := c.DoStrings("PING"); err != nil || v.Text() != "PONG" {
			t.Fatalf("PING = %+v, %v", v, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
