package abase

import (
	"fmt"
	"testing"

	"abase/internal/changestream"
	"abase/internal/resp"
)

// FuzzChangesCommand drives CHANGES with random arguments through a
// session. Whatever the arguments, the command must not panic, and its
// reply is an error or [token, events] whose token decodes and whose
// events are five-element arrays.
func FuzzChangesCommand(f *testing.F) {
	c, err := NewCluster(ClusterConfig{Nodes: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close() })
	ten, err := c.CreateTenant(TenantSpec{Name: "app", QuotaRU: 1e9, Partitions: 2})
	if err != nil {
		f.Fatal(err)
	}
	cl := ten.Client()
	for i := 0; i < 8; i++ {
		if err := cl.Set(bg, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			f.Fatal(err)
		}
	}
	if err := cl.Delete(bg, []byte("k0")); err != nil {
		f.Fatal(err)
	}
	c.Meta.FlushReplication()
	page, err := cl.ReadChanges(bg, "", 3)
	if err != nil {
		f.Fatal(err)
	}
	end, err := cl.ChangesToken(bg)
	if err != nil {
		f.Fatal(err)
	}
	for _, args := range [][]string{
		{"0"}, {"$"}, {page.Token}, {end}, {page.Token, "COUNT", "2"}, {"0", "count", "1"},
		{"0", "COUNT", "0"}, {"0", "COUNT", "-1"}, {"0", "COUNT", "99999999999999999999"},
		{"0", "LIMIT", "1"}, {"not-a-token"}, {page.Token[:len(page.Token)-1]}, {}, {"0", "COUNT"},
	} {
		var a [4]string
		copy(a[:], args)
		f.Add(uint8(len(args)), a[0], a[1], a[2], a[3])
	}
	s := &session{cluster: c, tenant: "app"}
	f.Fuzz(func(t *testing.T, nargs uint8, a0, a1, a2, a3 string) {
		cmd := resp.Command{Name: "CHANGES"}
		for _, a := range []string{a0, a1, a2, a3}[:nargs%5] {
			cmd.Args = append(cmd.Args, []byte(a))
		}
		v := s.Handle(cmd)
		if v.IsError() {
			return
		}
		if v.Kind != resp.Array || len(v.Array) != 2 || v.Array[0].Kind != resp.BulkString || v.Array[1].Kind != resp.Array {
			t.Fatalf("CHANGES %q = %+v, want an error or [token, events]", cmd.Args, v)
		}
		if _, err := changestream.Decode(string(v.Array[0].Str)); err != nil {
			t.Fatalf("CHANGES %q returned a token that does not decode: %v", cmd.Args, err)
		}
		for _, ev := range v.Array[1].Array {
			if ev.Kind != resp.Array || len(ev.Array) != 5 {
				t.Fatalf("CHANGES %q returned event %+v, want [partition, seq, op, key, value]", cmd.Args, ev)
			}
		}
	})
}
