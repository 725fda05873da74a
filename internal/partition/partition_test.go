package partition

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	id := ID{Tenant: "t1", Index: 3}
	if id.String() != "t1/3" {
		t.Fatalf("String = %q", id.String())
	}
	r := ReplicaID{Partition: id, Replica: 2}
	if r.String() != "t1/3/2" {
		t.Fatalf("String = %q", r.String())
	}
}

// TestHashGolden pins Hash on the published FNV-1a 64 vectors and on
// three bench-shaped keys: a change to any of them would move every
// key's partition and proxy group.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		key  string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
		{"key-00000000", 0x7a6bee47179436d3},
		{"key-00000001", 0x7a6bed4717943520},
		{"key-00016383", 0xe5516841fc460ae6},
	} {
		if got := Hash([]byte(c.key)); got != c.want {
			t.Errorf("Hash(%q) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

func TestPartitionOfStable(t *testing.T) {
	key := []byte("some-key")
	a := PartitionOf(key, 16)
	b := PartitionOf(key, 16)
	if a != b {
		t.Fatal("PartitionOf not deterministic")
	}
	if a < 0 || a >= 16 {
		t.Fatalf("out of range: %d", a)
	}
}

func TestPartitionOfPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PartitionOf([]byte("k"), 0)
}

func TestPartitionOfDistribution(t *testing.T) {
	const n, keys = 8, 8000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[PartitionOf([]byte(fmt.Sprintf("key-%d", i)), n)]++
	}
	for p, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Fatalf("partition %d has %d keys (expected ~%d)", p, c, keys/n)
		}
	}
}

func TestPropertyPartitionInRange(t *testing.T) {
	f := func(key []byte, n uint8) bool {
		parts := int(n%32) + 1
		p := PartitionOf(key, parts)
		return p >= 0 && p < parts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRouteFor(t *testing.T) {
	tbl := &Table{
		Tenant: "t1",
		Partitions: []Route{
			{Partition: ID{"t1", 0}, Primary: "node-a"},
			{Partition: ID{"t1", 1}, Primary: "node-b"},
		},
	}
	if tbl.NumPartitions() != 2 {
		t.Fatal("NumPartitions wrong")
	}
	r := tbl.RouteFor([]byte("any-key"))
	if r.Primary != "node-a" && r.Primary != "node-b" {
		t.Fatalf("RouteFor = %+v", r)
	}
	// Must agree with PartitionOf.
	want := tbl.Partitions[PartitionOf([]byte("any-key"), 2)]
	if r.Partition != want.Partition {
		t.Fatal("RouteFor disagrees with PartitionOf")
	}
}
