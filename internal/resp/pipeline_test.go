package resp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Write calls the server makes on a connection:
// each is a write(2) on a real socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// echoHandler answers PING with +PONG and ECHO x with x.
var echoHandler = HandlerFunc(func(cmd Command) Value {
	switch cmd.Name {
	case "PING":
		return Pong()
	case "ECHO":
		return Bulk(cmd.Args[0])
	}
	return Err("ERR unknown command '%s'", cmd.Name)
})

// servePipe runs serveConn on one end of a net.Pipe and returns the
// other end with the server's end. A pipe has no buffer, so a reply the
// client can read is a reply the server has written, and a reply the
// server holds back is a read that times out.
func servePipe(t *testing.T, factory func() Handler) (client net.Conn, server *countingConn) {
	t.Helper()
	c, s := net.Pipe()
	return c, serveOn(t, factory, c, s)
}

// serveTCP is servePipe over a loopback socket, for the cases that need
// kernel buffers or a half-close.
func serveTCP(t *testing.T, factory func() Handler) (client *net.TCPConn, server *countingConn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return c.(*net.TCPConn), serveOn(t, factory, c, s)
}

func serveOn(t *testing.T, factory func() Handler, c, s net.Conn) *countingConn {
	srv := NewSessionServer(factory)
	srv.Logf = func(string, ...interface{}) {}
	server := &countingConn{Conn: s}
	srv.wg.Add(1)
	go srv.serveConn(server)
	t.Cleanup(func() {
		c.Close()
		srv.wg.Wait() // serveConn returns once its connection is gone
	})
	// No step of these tests should take long; a held-back reply or a
	// deadlock fails as a timeout instead of hanging the suite.
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return server
}

func shared(h Handler) func() Handler { return func() Handler { return h } }

func echoCmd(s string) string {
	return fmt.Sprintf("*2\r\n$4\r\nECHO\r\n$%d\r\n%s\r\n", len(s), s)
}

func echoReply(s string) string { return fmt.Sprintf("$%d\r\n%s\r\n", len(s), s) }

// expect reads exactly len(want) bytes and compares them.
func expect(t *testing.T, conn net.Conn, want string) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("reading %q: got %q, then %v", want, got, err)
	}
	if string(got) != want {
		t.Fatalf("read %q, want %q", got, want)
	}
}

// (a) A batch that arrives in one segment is answered in order, in one
// write — two at most, should the batch have arrived in two pieces.
func TestPipelineBatchOneWrite(t *testing.T) {
	client, server := servePipe(t, shared(echoHandler))
	const n = 32
	var batch, want strings.Builder
	for i := 0; i < n; i++ {
		batch.WriteString(echoCmd(fmt.Sprint("value-", i)))
		want.WriteString(echoReply(fmt.Sprint("value-", i)))
	}
	if _, err := client.Write([]byte(batch.String())); err != nil {
		t.Fatal(err)
	}
	expect(t, client, want.String())
	if w := server.writes.Load(); w > 2 {
		t.Fatalf("%d replies took %d writes, want at most 2", n, w)
	}
}

// (b) At depth 1 every reply is on the wire before the server blocks
// for the next command, one write each.
func TestPipelineDepthOneNotDelayed(t *testing.T) {
	client, server := servePipe(t, shared(echoHandler))
	for i := 1; i <= 5; i++ {
		v := fmt.Sprint("v", i)
		if _, err := client.Write([]byte(echoCmd(v))); err != nil {
			t.Fatal(err)
		}
		expect(t, client, echoReply(v)) // nothing further was sent
		if w := server.writes.Load(); w != int64(i) {
			t.Fatalf("after %d commands: %d writes", i, w)
		}
	}
}

// (c) A half-received command does not hold back the replies before it.
func TestPipelinePartialCommandFlushesEarlier(t *testing.T) {
	client, _ := servePipe(t, shared(echoHandler))
	second := echoCmd("second")
	if _, err := client.Write([]byte(echoCmd("first") + second[:len(second)/2])); err != nil {
		t.Fatal(err)
	}
	expect(t, client, echoReply("first"))
	if _, err := client.Write([]byte(second[len(second)/2:])); err != nil {
		t.Fatal(err)
	}
	expect(t, client, echoReply("second"))
}

// (d) EOF in the middle of a trailing command: the complete commands
// before it are answered before the connection closes.
func TestPipelineEOFAfterPartialCommand(t *testing.T) {
	client, _ := serveTCP(t, shared(echoHandler))
	third := echoCmd("third")
	if _, err := client.Write([]byte(echoCmd("first") + echoCmd("second") + third[:len(third)-4])); err != nil {
		t.Fatal(err)
	}
	if err := client.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	if want := echoReply("first") + echoReply("second"); string(got) != want {
		t.Fatalf("before close: %q, want %q", got, want)
	}
}

// (e) A protocol error mid-pipeline: the replies to the commands before
// it, then the error, in order, then the connection closes.
func TestPipelineProtocolErrorKeepsOrder(t *testing.T) {
	client, _ := servePipe(t, shared(echoHandler))
	if _, err := client.Write([]byte(echoCmd("first") + echoCmd("second") + "*1\r\n:5\r\n" + echoCmd("never"))); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	if want := echoReply("first") + echoReply("second") + "-ERR protocol error\r\n"; string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// (f) A client that writes 10,000 commands before it reads a single
// reply: the server keeps reading (it blocks only on a full socket,
// never by holding replies), so the client's write completes and every
// reply is there to read.
func TestPipelineWriteAllThenRead(t *testing.T) {
	client, server := serveTCP(t, shared(echoHandler))
	const n = 10000
	if _, err := client.Write(bytes.Repeat([]byte("*1\r\n$4\r\nPING\r\n"), n)); err != nil {
		t.Fatal(err)
	}
	expect(t, client, strings.Repeat("+PONG\r\n", n))
	if w := server.writes.Load(); w > n/10 {
		t.Fatalf("%d replies took %d writes", n, w)
	}
}

// pushingHandler echoes, and keeps the connection's Pusher.
type pushingHandler struct{ bound chan Pusher }

func (h *pushingHandler) Bind(p Pusher)            { h.bound <- p }
func (h *pushingHandler) Handle(cmd Command) Value { return echoHandler(cmd) }

// (g) Pushes racing pipelined replies: every frame on the wire parses
// whole, the replies keep their order, and every push arrives. Run
// under -race, this is also the check that reply, Push and the
// flush-on-read share one lock.
func TestPipelinePushNeverTearsFrame(t *testing.T) {
	h := &pushingHandler{bound: make(chan Pusher, 1)}
	client, _ := serveTCP(t, shared(h))
	push := <-h.bound

	const batches, depth, pushes = 200, 16, 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < pushes; i++ {
			if err := push.Push(Arr(BulkStr("message"), BulkStr("chan"), Int64(int64(i)))); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			var batch strings.Builder
			for j := 0; j < depth; j++ {
				batch.WriteString(echoCmd(fmt.Sprint("reply-", b*depth+j)))
			}
			if _, err := client.Write([]byte(batch.String())); err != nil {
				t.Errorf("write batch %d: %v", b, err)
				return
			}
		}
	}()
	r := NewReader(client)
	nextReply, nextPush := 0, 0
	for nextReply < batches*depth || nextPush < pushes {
		v, err := r.Read()
		if err != nil {
			t.Fatalf("after %d replies and %d pushes: %v", nextReply, nextPush, err)
		}
		switch {
		case v.Kind == BulkString && string(v.Str) == fmt.Sprint("reply-", nextReply):
			nextReply++
		case v.Kind == Array && len(v.Array) == 3 && v.Array[0].Text() == "message" && v.Array[2].Int == int64(nextPush):
			nextPush++
		default:
			t.Fatalf("torn or misordered frame %+v (expecting reply %d or push %d)", v, nextReply, nextPush)
		}
	}
	wg.Wait()
}

// BenchmarkServePipelined drives the echo handler over a loopback
// socket, depth commands per write; ns/op is per command.
func BenchmarkServePipelined(b *testing.B) {
	for _, depth := range []int{1, 32} {
		b.Run(fmt.Sprint("depth=", depth), func(b *testing.B) {
			srv := NewServer(echoHandler)
			srv.Logf = func(string, ...interface{}) {}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			batch := []byte(strings.Repeat(echoCmd("0123456789abcdef"), depth))
			replies := make([]byte, depth*len(echoReply("0123456789abcdef")))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += depth {
				if _, err := conn.Write(batch); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, replies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
