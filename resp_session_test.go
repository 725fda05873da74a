package abase

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"abase/internal/resp"
)

// TestServeAuthReselect: AUTH switches the session's tenant, and each
// tenant sees only its own keyspace.
func TestServeAuthReselect(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "s1", QuotaRU: 100000})
	c.CreateTenant(TenantSpec{Name: "s2", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	if v, _ := cl.DoStrings("AUTH", "s1"); v.Text() != "OK" {
		t.Fatalf("AUTH s1 = %+v", v)
	}
	if v, _ := cl.DoStrings("SET", "k", "from-s1"); v.Text() != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v, _ := cl.DoStrings("AUTH", "s2"); v.Text() != "OK" {
		t.Fatalf("AUTH s2 = %+v", v)
	}
	if v, _ := cl.DoStrings("GET", "k"); !v.Null {
		t.Fatalf("s2 sees s1's key: %+v", v)
	}
	// A failed AUTH must not clobber the selected tenant.
	if v, _ := cl.DoStrings("AUTH", "ghost"); !v.IsError() {
		t.Fatalf("AUTH ghost = %+v", v)
	}
	if v, _ := cl.DoStrings("SET", "k2", "x"); v.Text() != "OK" {
		t.Fatalf("session lost tenant after failed AUTH: %+v", v)
	}
	if v, _ := cl.DoStrings("AUTH", "s1"); v.Text() != "OK" {
		t.Fatalf("re-AUTH s1 = %+v", v)
	}
	if v, _ := cl.DoStrings("GET", "k"); v.Text() != "from-s1" {
		t.Fatalf("s1 key after re-AUTH = %+v", v)
	}
}

// TestSessionResolvesClientOnce: a session looks its tenant up when it
// is selected, not per command, and READONLY / READWRITE reach the
// client it holds — across a re-AUTH too.
func TestSessionResolvesClientOnce(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "a", QuotaRU: 100000})
	c.CreateTenant(TenantSpec{Name: "b", QuotaRU: 100000})
	s := &session{cluster: c, tenant: "a"}
	do := func(name string, args ...string) resp.Value {
		cmd := resp.Command{Name: name}
		for _, a := range args {
			cmd.Args = append(cmd.Args, []byte(a))
		}
		return s.Handle(cmd)
	}
	if s.cl != nil {
		t.Fatal("default tenant resolved before any command needed it")
	}
	if v := do("SET", "k", "v"); v.Text() != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	first := s.cl
	if v := do("GET", "k"); v.Text() != "v" || s.cl != first {
		t.Fatalf("GET = %+v, client re-resolved: %v", v, s.cl != first)
	}
	if do("READONLY"); first.ReadPreference() != ReadFollower {
		t.Fatal("READONLY did not reach the session's client")
	}
	if v := do("AUTH", "ghost"); !v.IsError() || s.cl != first {
		t.Fatalf("failed AUTH = %+v, client replaced: %v", v, s.cl != first)
	}
	if v := do("AUTH", "b"); v.Text() != "OK" || s.cl == first || s.cl.ReadPreference() != ReadFollower {
		t.Fatalf("AUTH b = %+v, client %p (was %p), pref %v", v, s.cl, first, s.cl.ReadPreference())
	}
	if do("READWRITE"); s.cl.ReadPreference() != ReadPrimary {
		t.Fatal("READWRITE did not reach the session's client")
	}
}

// TestServePipelinedReadYourWrites: four commands sent as one write are
// executed in order — each GET sees the SET before it — and answered in
// order, however the replies are batched on the way out.
func TestServePipelinedReadYourWrites(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "pipe", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "pipe")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	batch := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\n1\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" +
		"*3\r\n$3\r\nset\r\n$1\r\nk\r\n$1\r\n2\r\n" +
		"*2\r\n$3\r\nget\r\n$1\r\nk\r\n"
	if _, err := conn.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n$1\r\n1\r\n+OK\r\n$1\r\n2\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != want {
		t.Fatalf("pipelined replies %q (%v), want %q", got, err, want)
	}
}

// TestServeSetOptionErrors: conflicting or malformed EX/PX options are
// syntax errors, as in Redis — not silently last-wins.
func TestServeSetOptionErrors(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "opts", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "opts")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	bad := [][]string{
		{"SET", "k", "v", "EX", "10", "PX", "1000"}, // conflicting
		{"SET", "k", "v", "PX", "1000", "EX", "10"}, // conflicting, reversed
		{"SET", "k", "v", "EX", "10", "EX", "20"},   // duplicate
		{"SET", "k", "v", "EX"},                     // missing operand
		{"SET", "k", "v", "EX", "0"},                // non-positive
		{"SET", "k", "v", "EX", "-3"},               // negative
		{"SET", "k", "v", "PX", "abc"},              // non-numeric
		{"SET", "k", "v", "NX", "XX"},               // conflicting conditions
		{"SET", "k", "v", "XX", "NX"},               // conflicting, reversed
		{"SET", "k", "v", "EX", "10", "KEEPTTL"},    // expiry conflicts with KEEPTTL
		{"SET", "k", "v", "KEEPTTL", "EX", "10"},    // same, reversed
		{"SET", "k", "v", "BOGUS"},                  // unknown option
	}
	for _, args := range bad {
		if v, _ := cl.DoStrings(args[0], args[1:]...); !v.IsError() {
			t.Fatalf("%v accepted: %+v", args, v)
		}
	}
	// Sanity: the well-formed variants still work.
	if v, _ := cl.DoStrings("SET", "k", "v", "EX", "10"); v.Text() != "OK" {
		t.Fatalf("SET EX = %+v", v)
	}
	if v, _ := cl.DoStrings("SET", "k", "v", "PX", "900"); v.Text() != "OK" {
		t.Fatalf("SET PX = %+v", v)
	}
}

// TestServeTTLReplies: TTL rounds up sub-second remainders (a key with
// 900ms left reports 1, not 0) and keeps the -1/-2 sentinels.
func TestServeTTLReplies(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "ttl3", QuotaRU: 100000, DisableProxyCache: true})
	addr, srv, err := c.Serve("127.0.0.1:0", "ttl3")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	cl.DoStrings("SET", "sub", "v", "PX", "900")
	if v, _ := cl.DoStrings("TTL", "sub"); v.Int != 1 {
		t.Fatalf("TTL 900ms = %+v, want 1", v)
	}
	cl.DoStrings("SET", "persist", "v")
	if v, _ := cl.DoStrings("TTL", "persist"); v.Int != -1 {
		t.Fatalf("TTL persistent = %+v", v)
	}
	if v, _ := cl.DoStrings("TTL", "ghost"); v.Int != -2 {
		t.Fatalf("TTL absent = %+v", v)
	}
}

// TestServeMGETPartialThrottle: a throttled key yields an error slot
// inside the MGET array while cached keys are still served — the reply
// is not aborted.
func TestServeMGETPartialThrottle(t *testing.T) {
	// The warm-up GET hits a node cache, so the proxy's estimator sees
	// only node hits; an uncached read still costs the read floor.
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, err := c.CreateTenant(TenantSpec{Name: "edge", QuotaRU: 100000})
	if err != nil {
		t.Fatal(err)
	}
	addr, srv, err := c.Serve("127.0.0.1:0", "edge")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	// A SET earns no proxy-cache slot; the GET after it is the key's
	// second access, which crosses the proxy's hotness-gated admission
	// threshold and caches the value.
	if v, _ := cl.DoStrings("SET", "hot", "cached"); v.Text() != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v, _ := cl.DoStrings("GET", "hot"); v.Text() != "cached" {
		t.Fatalf("GET = %+v", v)
	}
	tn.SetQuota(0.000001) // collapse the quota: uncached reads throttle

	v, err := cl.DoStrings("MGET", "hot", "cold", "hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Array) != 3 {
		t.Fatalf("MGET reply = %+v", v)
	}
	if v.Array[0].Text() != "cached" || v.Array[2].Text() != "cached" {
		t.Fatalf("cached slots = %+v", v.Array)
	}
	if !v.Array[1].IsError() || !strings.Contains(v.Array[1].Text(), "THROTTLED") {
		t.Fatalf("throttled slot = %+v", v.Array[1])
	}

	// Missing keys (without throttling) stay null slots.
	tn.SetQuota(100000)
	v, _ = cl.DoStrings("MGET", "hot", "nope")
	if v.Array[0].Text() != "cached" || !v.Array[1].Null {
		t.Fatalf("MGET with missing = %+v", v.Array)
	}
}

// TestServeExistsBatched: EXISTS counts keys without pulling values and
// handles repeats like Redis (each occurrence counts).
func TestServeExistsBatched(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "ex", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "ex")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	cl.DoStrings("MSET", "a", "1", "b", "2")
	if v, _ := cl.DoStrings("EXISTS", "a", "nope", "b", "a"); v.Int != 3 {
		t.Fatalf("EXISTS = %+v, want 3", v)
	}
}

// TestServeDELBatched: DEL runs as one batch and reports the count.
func TestServeDELBatched(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "del", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "del")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	cl.DoStrings("MSET", "a", "1", "b", "2", "c", "3")
	if v, _ := cl.DoStrings("DEL", "a", "b", "c"); v.Int != 3 {
		t.Fatalf("DEL = %+v", v)
	}
	if v, _ := cl.DoStrings("GET", "a"); !v.Null {
		t.Fatalf("a survived DEL: %+v", v)
	}
	// Redis counts only keys that existed.
	if v, _ := cl.DoStrings("DEL", "a", "ghost"); v.Int != 0 {
		t.Fatalf("DEL of absent keys = %+v, want 0", v)
	}
}

// TestServePersistPTTL: PERSIST removes an expiry (1) or reports none
// (0/-flavored), PTTL mirrors TTL in milliseconds with Redis's -1/-2
// sentinels.
func TestServePersistPTTL(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "ttl2", QuotaRU: 100000, DisableProxyCache: true})
	addr, srv, err := c.Serve("127.0.0.1:0", "ttl2")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	cl.DoStrings("SET", "k", "v", "EX", "100")
	if v, _ := cl.DoStrings("PTTL", "k"); v.Int <= 0 || v.Int > 100_000 {
		t.Fatalf("PTTL = %+v, want 0 < ms <= 100000", v)
	}
	if v, _ := cl.DoStrings("PERSIST", "k"); v.Int != 1 {
		t.Fatalf("PERSIST = %+v, want 1", v)
	}
	if v, _ := cl.DoStrings("PTTL", "k"); v.Int != -1 {
		t.Fatalf("PTTL after PERSIST = %+v, want -1", v)
	}
	if v, _ := cl.DoStrings("PERSIST", "k"); v.Int != 0 {
		t.Fatalf("second PERSIST = %+v, want 0 (no TTL to remove)", v)
	}
	if v, _ := cl.DoStrings("PERSIST", "ghost"); v.Int != 0 {
		t.Fatalf("PERSIST absent = %+v, want 0", v)
	}
	if v, _ := cl.DoStrings("PTTL", "ghost"); v.Int != -2 {
		t.Fatalf("PTTL absent = %+v, want -2", v)
	}
	if v, _ := cl.DoStrings("PERSIST"); !v.IsError() {
		t.Fatalf("PERSIST arity = %+v", v)
	}
	if v, _ := cl.DoStrings("PTTL", "a", "b"); !v.IsError() {
		t.Fatalf("PTTL arity = %+v", v)
	}
	// A persisted key must now survive what the TTL would have allowed:
	// GET still serves it (no expiry left to race).
	if v, _ := cl.DoStrings("GET", "k"); v.Text() != "v" {
		t.Fatalf("GET after PERSIST = %+v", v)
	}
}

// TestServeHSETMultiField: one HSET command with several pairs applies
// them atomically as one fleet admission; the reply counts NEW fields
// only, with left-to-right duplicate handling.
func TestServeHSETMultiField(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "hash2", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "hash2")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	if v, _ := cl.DoStrings("HSET", "h", "f1", "a", "f1", "b", "f2", "c"); v.Int != 2 {
		t.Fatalf("HSET dup-field = %+v, want 2 new fields", v)
	}
	if v, _ := cl.DoStrings("HGET", "h", "f1"); v.Text() != "b" {
		t.Fatalf("HGET f1 = %+v, want last-wins b", v)
	}
	if v, _ := cl.DoStrings("HSET", "h", "f2", "c2", "f3", "d"); v.Int != 1 {
		t.Fatalf("HSET overwrite+new = %+v, want 1", v)
	}
	if v, _ := cl.DoStrings("HLEN", "h"); v.Int != 3 {
		t.Fatalf("HLEN = %+v", v)
	}
	if v, _ := cl.DoStrings("HSET", "h", "f4"); !v.IsError() {
		t.Fatalf("HSET odd arity = %+v, want error", v)
	}
}

// TestServeHotkeysCommand: the HOTKEYS admin command surfaces the data
// plane's heavy hitters as key/estimate pairs, hottest first.
func TestServeHotkeysCommand(t *testing.T) {
	// Sample every access and disable the proxy cache so the hammered
	// key's traffic reaches the DataNode sketches deterministically.
	c := newCluster(t, ClusterConfig{Nodes: 3, HotSampleRate: 1})
	c.CreateTenant(TenantSpec{Name: "hotk", QuotaRU: 1e9, Partitions: 2, DisableProxyCache: true})
	addr, srv, err := c.Serve("127.0.0.1:0", "hotk")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	cl.DoStrings("SET", "blazing", "v")
	cl.DoStrings("SET", "warm", "v")
	for i := 0; i < 120; i++ {
		cl.DoStrings("GET", "blazing")
		if i%10 == 0 {
			cl.DoStrings("GET", "warm")
		}
	}
	v, err := cl.DoStrings("HOTKEYS", "2")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Array) != 4 { // two key/count pairs
		t.Fatalf("HOTKEYS = %+v, want 2 pairs", v)
	}
	if v.Array[0].Text() != "blazing" {
		t.Fatalf("hottest = %+v, want blazing", v.Array[0])
	}
	if v.Array[1].Int < 50 {
		t.Fatalf("blazing estimate = %+v, want ≈121", v.Array[1])
	}
	if v.Array[2].Text() != "warm" {
		t.Fatalf("second = %+v, want warm", v.Array[2])
	}
	if e, _ := cl.DoStrings("HOTKEYS", "zero"); !e.IsError() {
		t.Fatalf("HOTKEYS non-integer = %+v", e)
	}
	if e, _ := cl.DoStrings("HOTKEYS", "1", "2"); !e.IsError() {
		t.Fatalf("HOTKEYS arity = %+v", e)
	}
}

// TestServeSetConditional covers the SET NX/XX/GET/KEEPTTL matrix over
// the wire, including the Redis reply conventions: nil for an unmet
// condition, the old value (or nil) under GET regardless of outcome.
func TestServeSetConditional(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "cond", QuotaRU: 100000, DisableProxyCache: true})
	addr, srv, err := c.Serve("127.0.0.1:0", "cond")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	// NX: first write OK, second nil, value untouched.
	if v, _ := cl.DoStrings("SET", "k", "v1", "NX"); v.Text() != "OK" {
		t.Fatalf("SET NX fresh = %+v", v)
	}
	if v, _ := cl.DoStrings("SET", "k", "v2", "NX"); !v.Null {
		t.Fatalf("SET NX existing = %+v, want nil", v)
	}
	if v, _ := cl.DoStrings("GET", "k"); v.Text() != "v1" {
		t.Fatalf("NX overwrote: %+v", v)
	}

	// XX: nil on absent (and no write), OK on existing.
	if v, _ := cl.DoStrings("SET", "ghost", "v", "XX"); !v.Null {
		t.Fatalf("SET XX absent = %+v, want nil", v)
	}
	if v, _ := cl.DoStrings("GET", "ghost"); !v.Null {
		t.Fatalf("SET XX absent wrote: %+v", v)
	}
	if v, _ := cl.DoStrings("SET", "k", "v3", "XX"); v.Text() != "OK" {
		t.Fatalf("SET XX existing = %+v", v)
	}

	// GET: returns the previous value; on a fresh key (NX miss → the
	// write happens) the reply is nil.
	if v, _ := cl.DoStrings("SET", "fresh", "a", "NX", "GET"); !v.Null {
		t.Fatalf("SET NX GET fresh = %+v, want nil", v)
	}
	if v, _ := cl.DoStrings("GET", "fresh"); v.Text() != "a" {
		t.Fatalf("SET NX GET fresh did not write: %+v", v)
	}
	// NX+GET on an existing key: no write, old value returned.
	if v, _ := cl.DoStrings("SET", "fresh", "b", "NX", "GET"); v.Text() != "a" {
		t.Fatalf("SET NX GET existing = %+v, want old value", v)
	}
	if v, _ := cl.DoStrings("GET", "fresh"); v.Text() != "a" {
		t.Fatalf("SET NX GET existing overwrote: %+v", v)
	}
	// Plain GET option returns the old value while overwriting.
	if v, _ := cl.DoStrings("SET", "fresh", "c", "GET"); v.Text() != "a" {
		t.Fatalf("SET GET = %+v, want old value", v)
	}
	if v, _ := cl.DoStrings("GET", "fresh"); v.Text() != "c" {
		t.Fatalf("SET GET did not write: %+v", v)
	}

	// KEEPTTL: the expiry survives an overwrite; a plain SET clears it.
	if v, _ := cl.DoStrings("SET", "exp", "v", "EX", "100"); v.Text() != "OK" {
		t.Fatalf("SET EX = %+v", v)
	}
	if v, _ := cl.DoStrings("SET", "exp", "v2", "KEEPTTL"); v.Text() != "OK" {
		t.Fatalf("SET KEEPTTL = %+v", v)
	}
	if v, _ := cl.DoStrings("TTL", "exp"); v.Int <= 0 || v.Int > 100 {
		t.Fatalf("TTL after KEEPTTL = %+v, want (0,100]", v)
	}
	if v, _ := cl.DoStrings("SET", "exp", "v3"); v.Text() != "OK" {
		t.Fatalf("plain SET = %+v", v)
	}
	if v, _ := cl.DoStrings("TTL", "exp"); v.Int != -1 {
		t.Fatalf("TTL after plain SET = %+v, want -1", v)
	}

	// XX+GET on absent: nil reply, still no write.
	if v, _ := cl.DoStrings("SET", "ghost", "v", "XX", "GET"); !v.Null {
		t.Fatalf("SET XX GET absent = %+v, want nil", v)
	}
}
