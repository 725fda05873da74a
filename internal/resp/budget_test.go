package resp

import (
	"io"
	"runtime"
	"testing"
)

// TestAllocBudget is the RESP row of the per-layer allocation budget
// (the engine-to-Client rows are the root package's TestAllocBudget):
// one command decoded by a Server's connection loop and its reply
// encoded and written, over net.Pipe with a handler that allocates
// nothing, so what is counted is the protocol's own work. A decoded
// command costs one allocation holding its argument payloads, which
// the handler owns; the reply costs nothing. Counts are exact and fail
// at one more or one fewer.
//
//	go test -run TestAllocBudget -count=3 ./internal/resp
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	value := Bulk([]byte("0123456789abcdef"))
	handler := HandlerFunc(func(cmd Command) Value {
		if cmd.Name == "GET" {
			return value
		}
		return OK()
	})
	for _, row := range []struct {
		name, cmd, reply string
		allocs           int
		bytes            uint64
	}{
		{"GET", "*2\r\n$3\r\nGET\r\n$8\r\nkey-0001\r\n", "$16\r\n0123456789abcdef\r\n", 1, 16},
		{"SET", "*3\r\n$3\r\nSET\r\n$8\r\nkey-0001\r\n$16\r\n0123456789abcdef\r\n", "+OK\r\n", 1, 48},
	} {
		t.Run(row.name, func(t *testing.T) {
			client, _ := servePipe(t, shared(handler))
			cmd, reply := []byte(row.cmd), make([]byte, len(row.reply))
			roundTrip := func() {
				if _, err := client.Write(cmd); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(client, reply); err != nil {
					t.Fatal(err)
				}
			}
			roundTrip()
			if string(reply) != row.reply {
				t.Fatalf("reply %q, want %q", reply, row.reply)
			}
			const runs = 2000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := int(testing.AllocsPerRun(runs, roundTrip))
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			t.Logf("%d allocs, %d B per command", allocs, bytes)
			if allocs != row.allocs {
				t.Errorf("%d allocations per command, budget %d: a new allocation is a regression, and a saved one lowers the row", allocs, row.allocs)
			}
			if bytes > row.bytes {
				t.Errorf("%d bytes per command, ceiling %d", bytes, row.bytes)
			}
		})
	}
}
