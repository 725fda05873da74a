package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// nullServer is the reference the time-based metrics are scaled by: a
// RESP server of the benchmark's own that stores nothing. It answers
// SET with +OK and GET with the key's preloaded value, built on the
// spot, so the generator can drive and verify it exactly as it drives
// abase. What it costs is what this box charges right now for the
// generator, the kernel's loopback path and a goroutine wake-up — all
// of a command but abase (README, "Steadiness").
type nullServer struct {
	lis   net.Listener
	vals  *values
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func startNull(vals *values) (*nullServer, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &nullServer{lis: lis, vals: vals, conns: make(map[net.Conn]struct{})}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return // closed
			}
			n.mu.Lock()
			n.conns[c] = struct{}{}
			n.mu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				// An error ends the connection; the generator sees EOF.
				_ = n.serve(c)
				c.Close()
			}()
		}
	}()
	return n, nil
}

func (n *nullServer) addr() string { return n.lis.Addr().String() }

// close stops the listener and every connection, and waits for their
// goroutines to end.
func (n *nullServer) close() {
	n.lis.Close()
	n.mu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// serve answers the generator's commands: GET key-<idx> and
// SET key-<idx> <value>, as codec.go encodes them.
func (n *nullServer) serve(c net.Conn) error {
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)
	var reply []byte
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) != 4 || line[0] != '*' {
			return fmt.Errorf("null server: command header %q", line)
		}
		var idx uint32
		for arg := 0; arg < int(line[1]-'0'); arg++ {
			hdr, err := r.ReadSlice('\n')
			if err != nil {
				return err
			}
			size := 0
			for _, ch := range hdr[1 : len(hdr)-2] {
				size = size*10 + int(ch-'0')
			}
			if arg == 1 { // key-%08d
				key, err := r.Peek(size)
				if err != nil {
					return err
				}
				for _, ch := range key[4:] {
					idx = idx*10 + uint32(ch-'0')
				}
			}
			if _, err := r.Discard(size + 2); err != nil {
				return err
			}
		}
		if line[1] == '3' {
			reply = append(reply[:0], "+OK\r\n"...)
		} else {
			reply = appendUint(append(reply[:0], '$'), n.vals.size)
			reply = n.vals.append(append(reply, '\r', '\n'), idx, 0)
			reply = append(reply, '\r', '\n')
		}
		if _, err := w.Write(reply); err != nil {
			return err
		}
		// Answer a pipelined batch with one write, as it arrived.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}
