package abase

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"abase/internal/resp"
)

// The tests in this file hold the keyed writes to "one command is one
// atomic op on the primary" through the public surfaces: each of them
// fails on the two-pipeline read-modify-writes this replaced.

// TestClientConcurrentHSetKeepsEveryField: every acknowledged HSET of a
// distinct field is in the hash afterwards (the two-pipeline form kept
// 171 of 400).
func TestClientConcurrentHSetKeepsEveryField(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, err := c.CreateTenant(TenantSpec{Name: "h", QuotaRU: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("hash")
	const writers, each = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := tn.Client()
			for i := 0; i < each; i++ {
				if added, err := cl.HSet(bg, key, fmt.Sprintf("w%d-f%d", w, i), []byte("v")); err != nil || added != 1 {
					t.Errorf("HSET w%d-f%d = %d, %v", w, i, added, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, err := tn.Client().HLen(bg, key); err != nil || got != writers*each {
		t.Fatalf("hash kept %d of %d acknowledged fields (%v)", got, writers*each, err)
	}
}

// TestClientTTLCommandsNeverOverwriteASet: an EXPIRE or PERSIST racing
// an acknowledged SET always leaves the SET's value.
func TestClientTTLCommandsNeverOverwriteASet(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, err := c.CreateTenant(TenantSpec{Name: "r", QuotaRU: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.Client()
	for round := 0; round < 200; round++ {
		key := []byte(fmt.Sprintf("k%d", round))
		if err := cl.Set(bg, key, []byte("old"), WithTTL(time.Hour)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if round%2 == 0 {
				cl.Expire(bg, key, time.Minute)
			} else {
				cl.Persist(bg, key)
			}
		}()
		go func() {
			defer wg.Done()
			if err := cl.Set(bg, key, []byte("new"), WithTTL(time.Hour)); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if got, err := cl.Get(bg, key); err != nil || string(got) != "new" {
			t.Fatalf("round %d: an acknowledged SET was overwritten: %q, %v", round, got, err)
		}
	}
}

// TestHashWritesKeepTTL: HSET and HDEL rewrite the hash under its key's
// expiry (Redis semantics); HDEL of the last field still deletes it.
func TestHashWritesKeepTTL(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "t", QuotaRU: 1e9})
	cl, key := tn.Client(), []byte("h")
	if _, err := cl.HSet(bg, key, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Expire(bg, key, time.Hour); err != nil {
		t.Fatal(err)
	}
	ttlLeft := func(after string) {
		t.Helper()
		if ttl, has, err := cl.TTL(bg, key); err != nil || !has || ttl < 50*time.Minute {
			t.Fatalf("after %s: TTL = %v (has %v), %v; want ~1h", after, ttl, has, err)
		}
	}
	if added, err := cl.HSet(bg, key, "b", []byte("2")); err != nil || added != 1 {
		t.Fatalf("HSET = %d, %v", added, err)
	}
	ttlLeft("HSET")
	if removed, err := cl.HDel(bg, key, "a"); err != nil || removed != 1 {
		t.Fatalf("HDEL = %d, %v", removed, err)
	}
	ttlLeft("HDEL")
	if removed, err := cl.HDel(bg, key, "b"); err != nil || removed != 1 {
		t.Fatalf("HDEL of the last field = %d, %v", removed, err)
	}
	if _, _, err := cl.TTL(bg, key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the emptied hash is still there: %v", err)
	}
}

// TestServeCraftedHashValue: a stored value whose declared field length
// wraps the decoder's bound (hashfield's crasher seed) is an error reply
// to the hash commands — read and write — not a dead server.
func TestServeCraftedHashValue(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "app", QuotaRU: 1e9})
	addr, srv, err := c.Serve("127.0.0.1:0", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()
	crafted := "\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00\x00\x00"
	if v, _ := cl.DoStrings("SET", "k", crafted); v.Text() != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	for _, cmd := range [][]string{{"HGET", "k", "f"}, {"HLEN", "k"}, {"HGETALL", "k"}, {"HSET", "k", "f", "v"}, {"HDEL", "k", "f"}} {
		v, err := cl.DoStrings(cmd[0], cmd[1:]...)
		if err != nil || !v.IsError() || v.Text()[:9] != "WRONGTYPE" {
			t.Fatalf("%v = %+v, %v; want a WRONGTYPE error", cmd, v, err)
		}
	}
	if v, err := cl.DoStrings("GET", "k"); err != nil || v.Text() != crafted {
		t.Fatalf("the server stopped serving, or a refused hash write changed the value: %+v, %v", v, err)
	}
}
