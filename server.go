package abase

import (
	"context"
	"errors"
	"math/big"
	"strconv"
	"strings"
	"sync"
	"time"

	"abase/internal/resp"
)

// Redis documents the SCAN cursor as an integer, and typed clients
// parse it numerically, so the wire cursor is the internal opaque
// cursor bytes (with a sentinel byte preserving leading zeros) encoded
// as an arbitrary-precision decimal. "0" is both the start and the
// terminal cursor, as in Redis. Clients that parse cursors into a
// fixed-width integer may overflow on long resume keys; string
// passthrough (redis-cli style) always works.

// cursorToWire encodes an internal scan cursor for the RESP reply.
func cursorToWire(internal string) string {
	if internal == "" {
		return "0"
	}
	data := append([]byte{1}, internal...)
	return new(big.Int).SetBytes(data).String()
}

// cursorFromWire decodes a client-supplied SCAN cursor, reporting
// whether it is well-formed.
func cursorFromWire(wire string) (string, bool) {
	if wire == "0" {
		return "", true
	}
	n, ok := new(big.Int).SetString(wire, 10)
	if !ok || n.Sign() <= 0 {
		return "", false
	}
	data := n.Bytes()
	if data[0] != 1 {
		return "", false
	}
	return string(data[1:]), true
}

// ServeOption configures the RESP server.
type ServeOption func(*serveConfig)

type serveConfig struct {
	cmdTimeout time.Duration
}

// WithCommandTimeout bounds each command's execution: every command
// runs under a context deriving from the connection's base context
// with this deadline, so a slow or overloaded data plane cannot pin a
// connection forever — the command fails with a TIMEOUT error and the
// queued work is aborted. Zero (the default) applies no per-command
// deadline.
func WithCommandTimeout(d time.Duration) ServeOption {
	return func(c *serveConfig) { c.cmdTimeout = d }
}

// Serve exposes the cluster over the Redis protocol (RESP2) on addr
// (":0" picks a free port). Connections select their tenant with
// AUTH <tenant>; defaultTenant (when non-empty) is used before AUTH.
// It returns the bound address and the server for shutdown.
//
// Each connection owns a base context that is canceled when the
// connection closes, and each command runs under that context (plus
// the optional WithCommandTimeout deadline), so a client that hangs up
// mid-command sheds its queued work instead of being served into the
// void.
func (c *Cluster) Serve(addr, defaultTenant string, opts ...ServeOption) (string, *resp.Server, error) {
	var sc serveConfig
	for _, opt := range opts {
		opt(&sc)
	}
	srv := resp.NewSessionServer(func() resp.Handler {
		base, cancel := context.WithCancel(context.Background())
		return &session{
			cluster:    c,
			tenant:     defaultTenant,
			base:       base,
			cancel:     cancel,
			cmdTimeout: sc.cmdTimeout,
			channels:   make(map[string]struct{}),
			patterns:   make(map[string]struct{}),
		}
	})
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv, nil
}

// session is the per-connection RESP command handler.
type session struct {
	cluster *Cluster
	// tenant names the selected tenant and cl is its client, resolved
	// once — by AUTH, or for the default tenant by the first command
	// that needs it — so commands do not meet on the cluster's tenant
	// table.
	tenant   string
	cl       *Client
	readPref ReadPreference
	// base is the connection's context; canceled on disconnect so the
	// connection's in-flight and queued requests abort.
	base       context.Context
	cancel     context.CancelFunc
	cmdTimeout time.Duration

	// push writes server-initiated messages (pub/sub) to the
	// connection; nil when the handler runs without a server.
	push resp.Pusher
	// subMu guards the subscribed-mode state below (the notifier's
	// fan-out goroutine reads it concurrently with commands). Only the
	// command goroutine writes channels and patterns, and it may read
	// them without the lock.
	subMu    sync.Mutex
	channels map[string]struct{}
	patterns map[string]struct{}
	notif    *notifier
}

// Close implements io.Closer for the RESP server: the connection ended,
// so any of its requests still queued in the cluster are canceled.
func (s *session) Close() error {
	if s.cancel != nil {
		s.cancel()
	}
	s.closeNotifier()
	return nil
}

// cmdCtx derives one command's context from the connection base.
func (s *session) cmdCtx() (context.Context, context.CancelFunc) {
	base := s.base
	if base == nil {
		base = context.Background()
	}
	if s.cmdTimeout > 0 {
		return context.WithTimeout(base, s.cmdTimeout)
	}
	return base, func() {}
}

// use selects tenant name for the session's commands; the zero Value
// reports success. A failure leaves the current selection in place.
func (s *session) use(name string) resp.Value {
	t, err := s.cluster.Tenant(name)
	if err != nil {
		return resp.Err("ERR unknown tenant %q", name)
	}
	s.tenant, s.cl = name, t.Client()
	s.cl.SetReadPreference(s.readPref)
	return resp.Value{}
}

func (s *session) client() (*Client, resp.Value) {
	if s.cl == nil {
		if s.tenant == "" {
			return nil, resp.Err("NOAUTH tenant not selected; AUTH <tenant>")
		}
		if errV := s.use(s.tenant); errV.Kind != 0 {
			return nil, errV
		}
	}
	return s.cl, resp.Value{}
}

// setReadPref applies READONLY / READWRITE / RESET to the session and
// to the client it has resolved.
func (s *session) setReadPref(pref ReadPreference) {
	s.readPref = pref
	if s.cl != nil {
		s.cl.SetReadPreference(pref)
	}
}

// wrongArgs is the reply to a command given an argument count it does
// not accept.
func wrongArgs(name string) resp.Value {
	return resp.Err("ERR wrong number of arguments for '%s' command", strings.ToLower(name))
}

func opErr(err error) resp.Value {
	switch {
	case errors.Is(err, ErrNotFound):
		return resp.Null()
	case errors.Is(err, ErrThrottled):
		return resp.Err("THROTTLED request rate exceeds tenant quota")
	case errors.Is(err, ErrShed):
		return resp.Err("TIMEOUT deadline tighter than estimated queue wait; request shed")
	case errors.Is(err, ErrDeadlineExceeded):
		return resp.Err("TIMEOUT command deadline exceeded")
	case errors.Is(err, ErrCanceled):
		return resp.Err("ERR request canceled")
	case errors.Is(err, ErrWrongType):
		return resp.Err("WRONGTYPE Operation against a key holding the wrong kind of value")
	case errors.Is(err, ErrUnavailable):
		return resp.Err("UNAVAILABLE primary down, failover in progress; retry")
	default:
		return resp.Err("ERR %v", err)
	}
}

// firstKeyErr unwraps a *BatchError to its first per-key failure so
// single-reply commands (MSET, DEL, EXISTS) report a concrete cause.
func firstKeyErr(err error) error {
	var be *BatchError
	if errors.As(err, &be) {
		for _, e := range be.Errs {
			if e != nil {
				return e
			}
		}
	}
	return err
}

// command is one row of the session's command table: the argument
// counts the command accepts, whether it runs as the selected tenant,
// whether a subscribed connection may issue it, and its handler.
// Adding a command is adding a row.
type command struct {
	min, max   int  // accepted argument counts; max < 0 is unbounded
	tenant     bool // resolves the session's client before run
	subscribed bool // allowed in subscribed mode (Redis semantics)
	run        handler
}

// handler runs one command under its context ctx. c is the session's
// client, nil unless the command's row needs a tenant.
type handler func(s *session, ctx context.Context, c *Client, cmd resp.Command) resp.Value

// commands is the session's command table, keyed by upper-case name:
// {min args, max args, tenant, subscribed, handler}.
var commands = map[string]command{
	"PING":      {0, -1, false, true, (*session).pong},
	"AUTH":      {1, 1, false, false, (*session).auth},
	"GET":       {1, 1, true, false, (*session).get},
	"SET":       {2, -1, true, false, (*session).set},
	"DEL":       {1, -1, true, false, (*session).del},
	"EXISTS":    {1, -1, true, false, (*session).exists},
	"MGET":      {1, -1, true, false, (*session).mget},
	"MSET":      {2, -1, true, false, (*session).mset},
	"HSET":      {3, -1, true, false, (*session).hset},
	"HGET":      {2, 2, true, false, (*session).hget},
	"HLEN":      {1, 1, true, false, (*session).hlen},
	"HGETALL":   {1, 1, true, false, (*session).hgetall},
	"HDEL":      {2, -1, true, false, (*session).hdel},
	"TTL":       {1, 1, true, false, ttlIn(time.Second)},
	"PTTL":      {1, 1, true, false, ttlIn(time.Millisecond)},
	"EXPIRE":    {2, 2, true, false, (*session).expire},
	"PERSIST":   {1, 1, true, false, (*session).persist},
	"SCAN":      {1, -1, true, false, (*session).scan},
	"KEYS":      {1, 1, true, false, (*session).keys},
	"DBSIZE":    {0, 0, true, false, (*session).dbsize},
	"HOTKEYS":   {0, 1, true, false, (*session).hotkeys},
	"CHANGES":   {1, 3, true, false, (*session).changes},
	"READONLY":  {0, 0, false, false, readPref(ReadFollower)},
	"READWRITE": {0, 0, false, false, readPref(ReadPrimary)},
	"COMMAND":   {0, -1, false, false, (*session).noDocs},
	// The push protocol, in pubsub.go.
	"SUBSCRIBE":    {1, -1, true, true, subscribeTo(false)},
	"PSUBSCRIBE":   {1, -1, true, true, subscribeTo(true)},
	"UNSUBSCRIBE":  {0, -1, false, true, unsubscribeFrom(false)},
	"PUNSUBSCRIBE": {0, -1, false, true, unsubscribeFrom(true)},
	"RESET":        {0, -1, false, true, (*session).reset},
	"QUIT":         {0, -1, false, true, (*session).quit},
}

// Handle implements resp.Handler: it looks the command up and applies
// the checks every command shares, in order — subscribed mode, then
// the argument count, then the tenant — before running it under the
// command's context.
func (s *session) Handle(cmd resp.Command) resp.Value {
	row, ok := commands[cmd.Name]
	// Once a connection has subscriptions, only the pub/sub family
	// (plus PING/QUIT/RESET) is legal until it unsubscribes.
	if !row.subscribed && s.subscribed() {
		return resp.Err("ERR Can't execute '%s': only (P)SUBSCRIBE / (P)UNSUBSCRIBE / PING / QUIT / RESET are allowed in this context",
			strings.ToLower(cmd.Name))
	}
	if !ok {
		return resp.Err("ERR unknown command '%s'", cmd.Name)
	}
	if n := len(cmd.Args); n < row.min || row.max >= 0 && n > row.max {
		return wrongArgs(cmd.Name)
	}
	var c *Client
	if row.tenant {
		var errV resp.Value
		if c, errV = s.client(); c == nil {
			return errV
		}
	}
	ctx, cancel := s.cmdCtx()
	defer cancel()
	return row.run(s, ctx, c, cmd)
}

func (*session) pong(context.Context, *Client, resp.Command) resp.Value { return resp.Pong() }

// noDocs answers COMMAND, which clients probe at connect, with an
// empty list.
func (*session) noDocs(context.Context, *Client, resp.Command) resp.Value { return resp.Arr() }

func (s *session) auth(_ context.Context, _ *Client, cmd resp.Command) resp.Value {
	if errV := s.use(string(cmd.Args[0])); errV.Kind != 0 {
		return errV
	}
	return resp.OK()
}

// readPref is READONLY and READWRITE. READONLY opts the connection
// into serving reads from replicas (Redis Cluster semantics): here
// staleness-bounded follower reads, so it keeps reading through a
// primary outage. READWRITE returns to primary reads
// (read-your-writes).
func readPref(pref ReadPreference) handler {
	return func(s *session, _ context.Context, _ *Client, _ resp.Command) resp.Value {
		s.setReadPref(pref)
		return resp.OK()
	}
}

func (s *session) get(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	v, err := c.Get(ctx, cmd.Args[0])
	if err != nil {
		return opErr(err)
	}
	return resp.Bulk(v)
}

func (s *session) set(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	var opts []SetOption
	var nx, xx, get, keepTTL, ttlSet bool
	for i := 2; i < len(cmd.Args); i++ {
		switch strings.ToUpper(string(cmd.Args[i])) {
		case "EX", "PX":
			// Redis rejects duplicate or conflicting EX/PX options,
			// and KEEPTTL combined with an explicit expiry.
			if ttlSet || keepTTL || i+1 >= len(cmd.Args) {
				return resp.Err("ERR syntax error")
			}
			n, err := strconv.Atoi(string(cmd.Args[i+1]))
			if err != nil || n <= 0 {
				return resp.Err("ERR invalid expire time")
			}
			unit := time.Second
			if strings.EqualFold(string(cmd.Args[i]), "PX") {
				unit = time.Millisecond
			}
			opts = append(opts, WithTTL(time.Duration(n)*unit))
			ttlSet = true
			i++
		case "NX":
			if xx {
				return resp.Err("ERR syntax error")
			}
			nx = true
			opts = append(opts, IfNotExists())
		case "XX":
			if nx {
				return resp.Err("ERR syntax error")
			}
			xx = true
			opts = append(opts, IfExists())
		case "GET":
			get = true
			opts = append(opts, ReturnOld())
		case "KEEPTTL":
			if ttlSet {
				return resp.Err("ERR syntax error")
			}
			keepTTL = true
			opts = append(opts, KeepTTL())
		default:
			return resp.Err("ERR syntax error")
		}
	}
	// One write either way: a SET without NX/XX/GET/KEEPTTL is a
	// mutation that needs nothing of the old record, so the primary
	// pays for no probe.
	res, err := c.SetWith(ctx, cmd.Args[0], cmd.Args[1], opts...)
	if err != nil {
		return opErr(err)
	}
	switch {
	case get:
		// With GET the reply is always the old value: nil when the
		// key was absent (including an NX miss that did write).
		if !res.OldExists {
			return resp.Null()
		}
		return resp.Bulk(res.Old)
	case !res.Written:
		// NX/XX condition not met: Redis replies nil, not an error.
		return resp.Null()
	default:
		return resp.OK()
	}
}

func (s *session) del(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	deleted, err := c.MDelete(ctx, cmd.Args...)
	if err != nil {
		return opErr(firstKeyErr(err))
	}
	return resp.Int64(int64(deleted))
}

func (s *session) exists(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	exists, err := c.MExists(ctx, cmd.Args...)
	if err != nil {
		return opErr(firstKeyErr(err))
	}
	count := int64(0)
	for _, ok := range exists {
		if ok {
			count++
		}
	}
	return resp.Int64(count)
}

func (s *session) mget(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	vs, err := c.MGet(ctx, cmd.Args...)
	var be *BatchError
	if err != nil && !errors.As(err, &be) {
		return opErr(err)
	}
	// Per-key reply slots: missing keys are null, failed keys carry
	// their own error value — one throttled key no longer aborts the
	// whole reply.
	out := make([]resp.Value, len(vs))
	for i, v := range vs {
		switch {
		case be != nil && be.Errs[i] != nil:
			out[i] = opErr(be.Errs[i])
		case v == nil:
			out[i] = resp.Null()
		default:
			out[i] = resp.Bulk(v)
		}
	}
	return resp.Arr(out...)
}

func (s *session) mset(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	if len(cmd.Args)%2 != 0 {
		return wrongArgs(cmd.Name)
	}
	kvs := make([]KV, 0, len(cmd.Args)/2)
	for i := 0; i < len(cmd.Args); i += 2 {
		kvs = append(kvs, KV{Key: cmd.Args[i], Value: cmd.Args[i+1]})
	}
	if err := c.MSetPairs(ctx, kvs); err != nil {
		return opErr(firstKeyErr(err))
	}
	return resp.OK()
}

func (s *session) hset(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	if len(cmd.Args)%2 != 1 {
		return wrongArgs(cmd.Name)
	}
	// One command is one admission: all field/value pairs travel as a
	// single multi-field write instead of one round trip per pair.
	fvs := make([]FieldValue, 0, len(cmd.Args)/2)
	for i := 1; i < len(cmd.Args); i += 2 {
		fvs = append(fvs, FieldValue{Field: string(cmd.Args[i]), Value: cmd.Args[i+1]})
	}
	added, err := c.HSetFields(ctx, cmd.Args[0], fvs)
	if err != nil {
		return opErr(err)
	}
	return resp.Int64(int64(added))
}

func (s *session) hget(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	v, err := c.HGet(ctx, cmd.Args[0], string(cmd.Args[1]))
	if err != nil {
		return opErr(err)
	}
	return resp.Bulk(v)
}

func (s *session) hlen(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	n, err := c.HLen(ctx, cmd.Args[0])
	if err != nil {
		return opErr(err)
	}
	return resp.Int64(int64(n))
}

func (s *session) hgetall(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	m, err := c.HGetAll(ctx, cmd.Args[0])
	if err != nil {
		return opErr(err)
	}
	out := make([]resp.Value, 0, len(m)*2)
	for f, v := range m {
		out = append(out, resp.BulkStr(f), resp.Bulk(v))
	}
	return resp.Arr(out...)
}

func (s *session) hdel(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	fields := make([]string, len(cmd.Args)-1)
	for i, f := range cmd.Args[1:] {
		fields[i] = string(f)
	}
	n, err := c.HDel(ctx, cmd.Args[0], fields...)
	if err != nil {
		return opErr(err)
	}
	return resp.Int64(int64(n))
}

// ttlIn is TTL (unit time.Second) and PTTL (time.Millisecond), with
// Redis's -2 for a missing key and -1 for one without an expiry. The
// remainder rounds up, so a key with 900ms left reports 1 second, not
// 0: a live key never reports that it has expired.
func ttlIn(unit time.Duration) handler {
	return func(_ *session, ctx context.Context, c *Client, cmd resp.Command) resp.Value {
		ttl, hasTTL, err := c.TTL(ctx, cmd.Args[0])
		switch {
		case errors.Is(err, ErrNotFound):
			return resp.Int64(-2)
		case err != nil:
			return opErr(err)
		case !hasTTL:
			return resp.Int64(-1)
		}
		return resp.Int64(int64((ttl + unit - 1) / unit))
	}
}

// changed is the 0/1 reply of EXPIRE and PERSIST: 1 when the key
// exists and the command changed it, 0 when it is absent or unchanged.
func changed(ok bool, err error) resp.Value {
	switch {
	case errors.Is(err, ErrNotFound):
		return resp.Int64(0)
	case err != nil:
		return opErr(err)
	case ok:
		return resp.Int64(1)
	}
	return resp.Int64(0)
}

func (s *session) expire(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	sec, err := strconv.Atoi(string(cmd.Args[1]))
	if err != nil {
		return resp.Err("ERR value is not an integer or out of range")
	}
	if sec <= 0 {
		// Redis semantics: a zero or negative expiry deletes the key
		// immediately.
		return changed(true, c.Delete(ctx, cmd.Args[0]))
	}
	return changed(true, c.Expire(ctx, cmd.Args[0], time.Duration(sec)*time.Second))
}

func (s *session) persist(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	return changed(c.Persist(ctx, cmd.Args[0]))
}

func (s *session) scan(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	cursor, ok := cursorFromWire(string(cmd.Args[0]))
	if !ok {
		return resp.Err("ERR invalid cursor")
	}
	match := ""
	count := 0
	for i := 1; i < len(cmd.Args); i++ {
		switch strings.ToUpper(string(cmd.Args[i])) {
		case "MATCH":
			if i+1 >= len(cmd.Args) {
				return resp.Err("ERR syntax error")
			}
			match = string(cmd.Args[i+1])
			i++
		case "COUNT":
			if i+1 >= len(cmd.Args) {
				return resp.Err("ERR syntax error")
			}
			n, err := strconv.Atoi(string(cmd.Args[i+1]))
			if err != nil || n <= 0 {
				return resp.Err("ERR value is not an integer or out of range")
			}
			count = n
			i++
		default:
			return resp.Err("ERR syntax error")
		}
	}
	keys, next, err := c.Scan(ctx, cursor, match, count)
	if err != nil {
		if errors.Is(err, ErrBadCursor) {
			return resp.Err("ERR invalid cursor")
		}
		return opErr(err)
	}
	return resp.Arr(resp.BulkStr(cursorToWire(next)), bulkArr(keys))
}

func (s *session) keys(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	keys, err := c.Keys(ctx, string(cmd.Args[0]))
	if err != nil {
		return opErr(err)
	}
	return bulkArr(keys)
}

// bulkArr is keys as an array of bulk strings.
func bulkArr(keys [][]byte) resp.Value {
	out := make([]resp.Value, len(keys))
	for i, k := range keys {
		out[i] = resp.Bulk(k)
	}
	return resp.Arr(out...)
}

func (s *session) dbsize(ctx context.Context, c *Client, _ resp.Command) resp.Value {
	n, err := c.DBSize(ctx)
	if err != nil {
		return opErr(err)
	}
	return resp.Int64(n)
}

// hotkeys is the admin command HOTKEYS [count]: the tenant's current
// heavy hitters as a flat key/estimated-count pair list, hottest
// first. Counts are decayed window estimates from the data plane's
// hotspot sketches.
func (s *session) hotkeys(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	count := 10
	if len(cmd.Args) == 1 {
		n, err := strconv.Atoi(string(cmd.Args[0]))
		if err != nil || n <= 0 {
			return resp.Err("ERR value is not an integer or out of range")
		}
		count = n
	}
	hot, err := c.HotKeys(ctx, count)
	if err != nil {
		return opErr(err)
	}
	out := make([]resp.Value, 0, len(hot)*2)
	for _, hk := range hot {
		out = append(out, resp.Bulk(hk.Key), resp.Int64(int64(hk.Count+0.5)))
	}
	return resp.Arr(out...)
}
