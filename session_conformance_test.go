package abase

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"abase/internal/resp"
)

// nopPusher stands in for a connection's push writer: the cases below
// never get as far as pushing.
type nopPusher struct{}

func (nopPusher) Push(resp.Value) error { return nil }
func (nopPusher) Kick()                 {}

// TestSessionConformance pins the session's refusals and its replies
// to the commands that touch no data: one exact wire reply per case.
// Every command appears with each argument count its bounds refuse,
// before a tenant is selected, and on a subscribed connection.
func TestSessionConformance(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	if _, err := c.CreateTenant(TenantSpec{Name: "app", QuotaRU: 100000}); err != nil {
		t.Fatal(err)
	}
	type state int
	const (
		authed     state = iota // tenant "app" selected, a connection bound
		noTenant                // no tenant, a connection bound
		subscribed              // tenant selected, one channel subscribed
		detached                // tenant selected, no connection
		bare                    // no tenant, no connection
	)
	wrong := func(name string) string {
		return "-ERR wrong number of arguments for '" + name + "' command\r\n"
	}
	const noAuth = "-NOAUTH tenant not selected; AUTH <tenant>\r\n"
	refused := func(name string) string {
		return "-ERR Can't execute '" + name + "': only (P)SUBSCRIBE / (P)UNSUBSCRIBE / PING / QUIT / RESET are allowed in this context\r\n"
	}
	type tc struct {
		state state
		cmd   string
		want  string
	}
	cases := []tc{
		// Argument bounds, checked before the tenant; a parity rule
		// (MSET's pairs) is the command's own, checked after it.
		{noTenant, "AUTH", wrong("auth")},
		{noTenant, "AUTH a b", wrong("auth")},
		{noTenant, "GET", wrong("get")},
		{noTenant, "GET k k", wrong("get")},
		{noTenant, "SET k", wrong("set")},
		{noTenant, "DEL", wrong("del")},
		{noTenant, "EXISTS", wrong("exists")},
		{noTenant, "MGET", wrong("mget")},
		{noTenant, "MSET k", wrong("mset")},
		{authed, "MSET k v k", wrong("mset")},
		{noTenant, "HSET k f", wrong("hset")},
		{authed, "HSET k f v g", wrong("hset")},
		{noTenant, "HGET k", wrong("hget")},
		{noTenant, "HGET k f g", wrong("hget")},
		{noTenant, "HLEN", wrong("hlen")},
		{noTenant, "HLEN k k", wrong("hlen")},
		{noTenant, "HGETALL", wrong("hgetall")},
		{noTenant, "HGETALL k k", wrong("hgetall")},
		{noTenant, "HDEL k", wrong("hdel")},
		{noTenant, "TTL", wrong("ttl")},
		{noTenant, "TTL k k", wrong("ttl")},
		{noTenant, "PTTL", wrong("pttl")},
		{noTenant, "PTTL k k", wrong("pttl")},
		{noTenant, "EXPIRE k", wrong("expire")},
		{noTenant, "EXPIRE k 1 1", wrong("expire")},
		{noTenant, "PERSIST", wrong("persist")},
		{noTenant, "PERSIST k k", wrong("persist")},
		{noTenant, "SCAN", wrong("scan")},
		{noTenant, "KEYS", wrong("keys")},
		{noTenant, "KEYS a b", wrong("keys")},
		{noTenant, "DBSIZE x", wrong("dbsize")},
		{noTenant, "HOTKEYS 1 2", wrong("hotkeys")},
		{noTenant, "CHANGES", wrong("changes")},
		{authed, "CHANGES 0 COUNT", wrong("changes")},
		{noTenant, "CHANGES 0 COUNT 1 x", wrong("changes")},
		{noTenant, "SUBSCRIBE", wrong("subscribe")},
		{noTenant, "PSUBSCRIBE", wrong("psubscribe")},
		{noTenant, "READONLY x", wrong("readonly")},
		{noTenant, "READWRITE x", wrong("readwrite")},

		// Every tenant command before AUTH.
		{noTenant, "GET k", noAuth},
		{noTenant, "SET k v", noAuth},
		{noTenant, "DEL k", noAuth},
		{noTenant, "EXISTS k", noAuth},
		{noTenant, "MGET k", noAuth},
		{noTenant, "MSET k v", noAuth},
		{noTenant, "HSET k f v", noAuth},
		{noTenant, "HGET k f", noAuth},
		{noTenant, "HLEN k", noAuth},
		{noTenant, "HGETALL k", noAuth},
		{noTenant, "HDEL k f", noAuth},
		{noTenant, "TTL k", noAuth},
		{noTenant, "PTTL k", noAuth},
		{noTenant, "EXPIRE k 1", noAuth},
		{noTenant, "PERSIST k", noAuth},
		{noTenant, "SCAN 0", noAuth},
		{noTenant, "KEYS *", noAuth},
		{noTenant, "DBSIZE", noAuth},
		{noTenant, "HOTKEYS", noAuth},
		{noTenant, "HOTKEYS 3", noAuth},
		{noTenant, "HOTKEYS x", noAuth},
		{authed, "HOTKEYS x", "-ERR value is not an integer or out of range\r\n"},
		{noTenant, "MSET k v k", noAuth},
		{noTenant, "HSET k f v g", noAuth},
		{noTenant, "CHANGES 0 COUNT", noAuth},
		{noTenant, "CHANGES 0", noAuth},
		{noTenant, "CHANGES $ COUNT 1", noAuth},
		{noTenant, "SUBSCRIBE ch", noAuth},
		{noTenant, "PSUBSCRIBE p*", noAuth},

		// The commands that need no tenant.
		{noTenant, "AUTH ghost", "-ERR unknown tenant \"ghost\"\r\n"},
		{noTenant, "PING", "+PONG\r\n"},
		{noTenant, "PING hello", "+PONG\r\n"},
		{noTenant, "COMMAND", "*0\r\n"},
		{noTenant, "COMMAND DOCS", "*0\r\n"},
		{noTenant, "READONLY", "+OK\r\n"},
		{noTenant, "READWRITE", "+OK\r\n"},
		{noTenant, "RESET", "+RESET\r\n"},
		{noTenant, "AUTH app", "+OK\r\n"},

		// Unknown names keep the case the reader gave them.
		{authed, "FLUSHALL", "-ERR unknown command 'FLUSHALL'\r\n"},
		{noTenant, "NOPE x", "-ERR unknown command 'NOPE'\r\n"},

		// A subscribed connection refuses all but the pub/sub family,
		// unknown names and bad argument counts included.
		{subscribed, "GET k", refused("get")},
		{subscribed, "GET", refused("get")},
		{subscribed, "SET k v", refused("set")},
		{subscribed, "DEL k", refused("del")},
		{subscribed, "EXISTS k", refused("exists")},
		{subscribed, "MGET k", refused("mget")},
		{subscribed, "MSET k v", refused("mset")},
		{subscribed, "HSET k f v", refused("hset")},
		{subscribed, "HGET k f", refused("hget")},
		{subscribed, "HLEN k", refused("hlen")},
		{subscribed, "HGETALL k", refused("hgetall")},
		{subscribed, "HDEL k f", refused("hdel")},
		{subscribed, "TTL k", refused("ttl")},
		{subscribed, "PTTL k", refused("pttl")},
		{subscribed, "EXPIRE k 1", refused("expire")},
		{subscribed, "PERSIST k", refused("persist")},
		{subscribed, "SCAN 0", refused("scan")},
		{subscribed, "KEYS *", refused("keys")},
		{subscribed, "DBSIZE", refused("dbsize")},
		{subscribed, "HOTKEYS", refused("hotkeys")},
		{subscribed, "CHANGES 0", refused("changes")},
		{subscribed, "AUTH app", refused("auth")},
		{subscribed, "READONLY", refused("readonly")},
		{subscribed, "READWRITE", refused("readwrite")},
		{subscribed, "COMMAND", refused("command")},
		{subscribed, "FLUSHALL", refused("flushall")},
		{subscribed, "PING", "+PONG\r\n"},

		// Pub/sub needs a connection to push on.
		{detached, "SUBSCRIBE ch", "-ERR SUBSCRIBE requires a network connection\r\n"},
		{detached, "PSUBSCRIBE p*", "-ERR PSUBSCRIBE requires a network connection\r\n"},
		{detached, "UNSUBSCRIBE", "-ERR UNSUBSCRIBE requires a network connection\r\n"},
		{detached, "PUNSUBSCRIBE p*", "-ERR PUNSUBSCRIBE requires a network connection\r\n"},
		{bare, "SUBSCRIBE ch", noAuth},
		{bare, "UNSUBSCRIBE ch", "-ERR UNSUBSCRIBE requires a network connection\r\n"},
		{detached, "QUIT", "+OK\r\n"},
		{detached, "QUIT now", "+OK\r\n"},
	}
	for _, tc := range cases {
		s := &session{cluster: c}
		switch tc.state {
		case authed:
			s.tenant, s.push = "app", nopPusher{}
		case noTenant:
			s.push = nopPusher{}
		case subscribed:
			s.tenant, s.push = "app", nopPusher{}
			s.channels = map[string]struct{}{"ch": {}}
		case detached:
			s.tenant = "app"
		}
		fields := strings.Fields(tc.cmd)
		cmd := resp.Command{Name: fields[0]}
		for _, a := range fields[1:] {
			cmd.Args = append(cmd.Args, []byte(a))
		}
		var wire bytes.Buffer
		w := resp.NewWriter(&wire)
		if err := w.Write(s.Handle(cmd)); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if got := wire.String(); got != tc.want {
			t.Errorf("state %d, %s: reply %q, want %q", tc.state, tc.cmd, got, tc.want)
		}
	}
}

// TestREADMEListsEveryCommand: the README's command reference has one
// row per row of the session's command table, and no other.
func TestREADMEListsEveryCommand(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(readme), "\n## RESP command reference\n")
	if !ok {
		t.Fatal("README.md has no RESP command reference")
	}
	ref, _, _ = strings.Cut(ref, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(ref, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(cell, "`")
			name, _, _ = strings.Cut(name, " ")
			documented[name] = true
		}
	}
	for name := range commands {
		if !documented[name] {
			t.Errorf("%s is served but has no row in the README's command reference", name)
		}
	}
	for name := range documented {
		if _, ok := commands[name]; !ok {
			t.Errorf("the README's command reference lists %s, which the session does not serve", name)
		}
	}
}
