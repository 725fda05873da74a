package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// batchReader hands out one pipelined batch per Read, cycling through
// its batches for ever, the way a client 32 commands deep fills a
// connection's read buffer.
type batchReader struct {
	batches [][]byte
	next    int
	rest    []byte
}

func (b *batchReader) Read(p []byte) (int, error) {
	if len(b.rest) == 0 {
		b.rest = b.batches[b.next%len(b.batches)]
		b.next++
	}
	n := copy(p, b.rest)
	b.rest = b.rest[n:]
	return n, nil
}

// BenchmarkReadCommand decodes the command stream of a bench/ workload
// through a 64 KiB bufio.Reader, as serveConn reads a connection, 32
// commands a read; ns/op and allocs/op are per command. hot-d32 is
// 95 % GET of key-%08d and 5 % SET of 128 B values, churn is 50/50
// with 1 KiB values.
//
//	go test -run '^$' -bench BenchmarkReadCommand -benchmem ./internal/resp
func BenchmarkReadCommand(b *testing.B) {
	for _, shape := range []struct {
		name           string
		setPct, valLen int
	}{
		{"hot-d32", 5, 128},
		{"churn", 50, 1024},
	} {
		b.Run(shape.name, func(b *testing.B) {
			const depth, batches = 32, 64
			rng := rand.New(rand.NewSource(1))
			value := bytes.Repeat([]byte("v"), shape.valLen)
			src := &batchReader{}
			for i := 0; i < batches; i++ {
				var batch []byte
				for j := 0; j < depth; j++ {
					key := fmt.Sprintf("key-%08d", rng.Intn(1<<16))
					if rng.Intn(100) < shape.setPct {
						batch = fmt.Appendf(batch, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n", len(key), key, len(value), value)
					} else {
						batch = fmt.Appendf(batch, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(key), key)
					}
				}
				src.batches = append(src.batches, batch)
			}
			r := &Reader{r: bufio.NewReaderSize(src, connBufSize)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.ReadCommand(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
