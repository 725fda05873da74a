package resp

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// Handler processes one parsed command and returns the reply value.
// Implementations must be safe for concurrent use. A Handler that also
// implements io.Closer is closed when its connection ends — session
// handlers use this to cancel their per-connection base context, which
// aborts any of the connection's requests still queued in the cluster.
//
// Ownership: every cmd.Args[i] is fresh memory that is the handler's to
// keep (the caches retain SET values). A command's arguments may share
// one allocation when they total at most maxSharedBytes, so a kept
// argument keeps that much of its neighbours alive at most; none
// aliases another or the read buffer. The cmd.Args slice
// holding them is reused for the connection's next command and is
// valid only until Handle returns. The reply's payload is only read.
type Handler interface {
	Handle(cmd Command) Value
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(cmd Command) Value

// Handle implements Handler.
func (f HandlerFunc) Handle(cmd Command) Value { return f(cmd) }

// Pusher lets a handler write server-initiated messages to its
// connection outside the request/reply cycle — the pub/sub push
// protocol. Push serializes with command replies (one writer mutex
// guards the connection), so a push never tears a reply mid-frame, and
// it flushes at once, carrying any replies buffered before it.
// Kick closes the connection; the server uses it to drop a consumer
// that has stopped reading rather than buffer without bound.
type Pusher interface {
	Push(v Value) error
	Kick()
}

// PushBinder is implemented by session handlers that push: the server
// hands each connection's Pusher to its handler before the first
// command is read.
type PushBinder interface {
	Bind(p Pusher)
}

// NoReply is returned by a Handler when the command's responses were
// already written through the connection's Pusher (e.g. SUBSCRIBE
// confirmations, one per channel): the server writes nothing.
func NoReply() Value { return Value{} }

// connBufSize sizes a connection's read buffer and its write buffer: a
// 32-deep pipeline of 1 KiB SETs (34 KiB on the wire) arrives in one
// read, and the replies to a batch leave in one write.
const connBufSize = 64 << 10

// connPusher is the per-connection buffered writer shared by command
// replies and pushes, and the io.Reader the connection's commands are
// parsed from. Replies collect in the write buffer and reach the wire
// exactly when the connection is about to wait for more input (Read),
// when the buffer fills, with a Push, and when serveConn returns. So a
// pipelined batch costs one write however deep it is, a lone command's
// reply is written before the server blocks for the next one, and the
// server never waits for input with a reply unsent — the client it is
// waiting for cannot be waiting for that reply.
type connPusher struct {
	mu   sync.Mutex
	w    *Writer
	conn net.Conn
}

// Push implements Pusher.
func (p *connPusher) Push(v Value) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.w.Write(v); err != nil {
		return err
	}
	return p.w.Flush()
}

// reply buffers one command reply.
func (p *connPusher) reply(v Value) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.w.Write(v)
}

func (p *connPusher) flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.w.Flush()
}

// Read implements io.Reader under the connection's bufio.Reader, which
// calls it only when its buffer holds no complete command: the moment
// the replies buffered so far must go out.
func (p *connPusher) Read(b []byte) (int, error) {
	if err := p.flush(); err != nil {
		return 0, err
	}
	return p.conn.Read(b)
}

// Kick implements Pusher.
func (p *connPusher) Kick() { p.conn.Close() }

// Server serves the RESP protocol over TCP.
type Server struct {
	factory func() Handler
	lis     net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	// Logf logs server errors; defaults to log.Printf. Set to a no-op
	// in tests to silence expected connection errors.
	Logf func(format string, args ...interface{})
}

// NewServer returns a server dispatching every connection to the same
// (concurrency-safe) handler.
func NewServer(handler Handler) *Server {
	return NewSessionServer(func() Handler { return handler })
}

// NewSessionServer returns a server that creates a fresh handler per
// connection, allowing per-connection state such as the authenticated
// tenant.
func NewSessionServer(factory func() Handler) *Server {
	return &Server{
		factory: factory,
		conns:   make(map[net.Conn]struct{}),
		Logf:    log.Printf,
	}
}

// Listen binds addr ("host:port"; ":0" picks a free port) and starts
// accepting in a background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(lis)
	return lis.Addr().String(), nil
}

func (s *Server) acceptLoop(lis net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			s.Logf("resp: accept: %v", err)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	push := &connPusher{w: &Writer{w: bufio.NewWriterSize(conn, connBufSize)}, conn: conn}
	defer push.flush()
	r := &Reader{r: bufio.NewReaderSize(push, connBufSize)}
	handler := s.factory()
	if c, ok := handler.(io.Closer); ok {
		defer c.Close()
	}
	if b, ok := handler.(PushBinder); ok {
		b.Bind(push)
	}
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				if errors.Is(err, ErrProtocol) {
					push.Push(Err("ERR protocol error"))
				}
			}
			return
		}
		reply := handler.Handle(cmd)
		if reply.Kind == 0 {
			continue // NoReply: the handler pushed its own responses
		}
		if err := push.reply(reply); err != nil {
			return
		}
	}
}

// Close stops accepting, closes all connections, and waits for handler
// goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a synchronous RESP client over a single connection.
// Safe for concurrent use; requests are serialized.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *Reader
	w    *Writer
}

// Dial connects to a RESP server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: NewReader(conn), w: NewWriter(conn)}, nil
}

// Do issues a command and returns the server's reply.
func (c *Client) Do(name string, args ...[]byte) (Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.w.WriteCommand(name, args...); err != nil {
		return Value{}, err
	}
	return c.r.Read()
}

// DoStrings is Do with string arguments.
func (c *Client) DoStrings(name string, args ...string) (Value, error) {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.Do(name, bs...)
}

// Read returns the next server message without sending anything: the
// receive half of the push protocol, used while the connection is in
// subscribed mode. Do not call concurrently with Do — a push-mode
// connection has one reader.
func (c *Client) Read() (Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.r.Read()
}

// SetReadDeadline bounds the next Read (zero time clears it).
func (c *Client) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
