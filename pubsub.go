package abase

// This file puts the change stream on the wire: Redis keyspace
// notifications over the RESP push protocol (SUBSCRIBE / PSUBSCRIBE /
// UNSUBSCRIBE / PUNSUBSCRIBE), the subscribed-connection state
// machine, and the CHANGES polling command (the XREAD shape of
// ReadChanges).
//
// Notifications follow Redis's __keyspace@0__:<key> convention: a
// committed write publishes the event name ("set" or "del") on its
// key's channel, and PSUBSCRIBE's glob patterns give key-prefix
// filtering (PSUBSCRIBE __keyspace@0__:user:*). Like Redis keyspace
// notifications they are fire-and-forget from the connection's
// subscribe time — use CHANGES with a resume token for replayable,
// exactly-once consumption. Lazily-expired TTL records produce no
// notification (expiry has no commit).
//
// Delivery to a connection is bounded: events fan from the session's
// change subscription into a fixed buffer drained by a writer
// goroutine, and a consumer that stops reading long enough to fill it
// is disconnected (Redis's client-output-buffer-limit behavior for
// pub/sub clients) rather than buffering without bound.

import (
	"context"
	"errors"
	"strconv"
	"strings"

	"abase/internal/glob"
	"abase/internal/resp"
)

// keyspacePrefix is the notification channel namespace. The database
// index is always 0: tenants select databases via AUTH, not SELECT.
const keyspacePrefix = "__keyspace@0__:"

// pubsubOutBuffer is the per-connection push buffer (values, not
// bytes); a full buffer disconnects the consumer.
const pubsubOutBuffer = 256

// notifier is a session's live notification fan-out: one change
// subscription feeding a bounded push buffer.
type notifier struct {
	sub *Subscription
	out chan resp.Value
}

// Bind implements resp.PushBinder: the server hands the session its
// connection's push writer before the first command.
func (s *session) Bind(p resp.Pusher) { s.push = p }

// subscribed reports whether the connection is in subscribed mode. It
// runs on every command, so it reads the two sets without subMu: only
// the command goroutine, its one caller, writes them (SUBSCRIBE,
// UNSUBSCRIBE, RESET), so its own reads race with nothing; the lock
// orders those writes against the fan-out goroutine's reads.
func (s *session) subscribed() bool { return len(s.channels)+len(s.patterns) > 0 }

// subCount returns the Redis subscription count (channels + patterns).
// Callers hold s.subMu.
func (s *session) subCount() int64 { return int64(len(s.channels) + len(s.patterns)) }

// startNotifier lazily opens the session's change subscription and its
// pump goroutines. Returns an error value, or NoReply-zero on success.
// Callers must not hold s.subMu.
func (s *session) startNotifier(c *Client) resp.Value {
	s.subMu.Lock()
	running := s.notif != nil
	s.subMu.Unlock()
	if running {
		return resp.Value{}
	}
	// Tail subscription: notifications start at subscribe time, like
	// Redis. The buffer is generous because the RESP layer applies its
	// own, stricter slow-consumer policy below.
	sub, err := c.Subscribe(s.base, SubscribeOptions{Buffer: 1024})
	if err != nil {
		return opErr(err)
	}
	n := &notifier{sub: sub, out: make(chan resp.Value, pubsubOutBuffer)}
	s.subMu.Lock()
	s.notif = n
	s.subMu.Unlock()
	// Writer: drains the bounded buffer onto the wire, sharing the
	// reply mutex so pushes never tear replies.
	go func() {
		for v := range n.out {
			if s.push.Push(v) != nil {
				return // connection gone; reader notices via Kick/close
			}
		}
	}()
	// Reader: fans subscription events to matching channels/patterns.
	// A full buffer means the client stopped reading: disconnect it —
	// the log is durable, a reconnecting client loses nothing it could
	// not re-read with CHANGES.
	go func() {
		defer close(n.out)
		for ev := range sub.Events() {
			for _, v := range s.matchEvent(ev) {
				select {
				case n.out <- v:
				default:
					s.push.Kick()
					return
				}
			}
		}
	}()
	return resp.Value{}
}

// matchEvent renders ev as push messages for every matching
// subscription.
func (s *session) matchEvent(ev Change) []resp.Value {
	channel := keyspacePrefix + string(ev.Key)
	event := "set"
	if ev.Delete {
		event = "del"
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	var out []resp.Value
	if _, ok := s.channels[channel]; ok {
		out = append(out, resp.Arr(
			resp.BulkStr("message"), resp.BulkStr(channel), resp.BulkStr(event)))
	}
	for pat := range s.patterns {
		if glob.Match(pat, channel) {
			out = append(out, resp.Arr(
				resp.BulkStr("pmessage"), resp.BulkStr(pat), resp.BulkStr(channel), resp.BulkStr(event)))
		}
	}
	return out
}

// closeNotifier tears down the session's subscription (idempotent).
func (s *session) closeNotifier() {
	s.subMu.Lock()
	n := s.notif
	s.notif = nil
	s.subMu.Unlock()
	if n != nil {
		n.sub.Close()
	}
}

// subscribeTo is SUBSCRIBE (patterns false) and PSUBSCRIBE (true):
// it starts the session's notifier and confirms each channel or
// pattern with a push.
func subscribeTo(patterns bool) handler {
	return func(s *session, _ context.Context, c *Client, cmd resp.Command) resp.Value {
		if s.push == nil {
			return resp.Err("ERR %s requires a network connection", cmd.Name)
		}
		if v := s.startNotifier(c); v.Kind != 0 {
			return v
		}
		kind, set := resp.BulkStr(strings.ToLower(cmd.Name)), s.subscriptions(patterns)
		s.subMu.Lock()
		confirms := make([]resp.Value, 0, len(cmd.Args))
		for _, arg := range cmd.Args {
			set[string(arg)] = struct{}{}
			confirms = append(confirms, resp.Arr(
				kind, resp.Bulk(arg), resp.Int64(s.subCount())))
		}
		s.subMu.Unlock()
		s.pushAll(confirms)
		return resp.NoReply()
	}
}

// unsubscribeFrom is UNSUBSCRIBE (patterns false) and PUNSUBSCRIBE
// (true): it drops the named channels or patterns, or all of them
// when none is named, and confirms each with a push.
func unsubscribeFrom(patterns bool) handler {
	return func(s *session, _ context.Context, _ *Client, cmd resp.Command) resp.Value {
		if s.push == nil {
			return resp.Err("ERR %s requires a network connection", cmd.Name)
		}
		kind, set := resp.BulkStr(strings.ToLower(cmd.Name)), s.subscriptions(patterns)
		s.subMu.Lock()
		targets := make([]string, 0, len(cmd.Args))
		if len(cmd.Args) == 0 {
			for ch := range set {
				targets = append(targets, ch)
			}
		} else {
			for _, arg := range cmd.Args {
				targets = append(targets, string(arg))
			}
		}
		var confirms []resp.Value
		for _, ch := range targets {
			delete(set, ch)
			confirms = append(confirms, resp.Arr(
				kind, resp.BulkStr(ch), resp.Int64(s.subCount())))
		}
		if len(confirms) == 0 {
			// Redis acknowledges an unsubscribe-from-nothing with a nil
			// channel so the client's reply accounting stays in step.
			confirms = append(confirms, resp.Arr(
				kind, resp.Null(), resp.Int64(s.subCount())))
		}
		s.subMu.Unlock()
		s.pushAll(confirms)
		return resp.NoReply()
	}
}

// subscriptions returns the session's pattern set or its channel set.
func (s *session) subscriptions(patterns bool) map[string]struct{} {
	if patterns {
		return s.patterns
	}
	return s.channels
}

// pushAll pushes vs in order, stopping at the first failed push.
func (s *session) pushAll(vs []resp.Value) {
	for _, v := range vs {
		if s.push.Push(v) != nil {
			return
		}
	}
}

// reset exits subscribed mode (among Redis RESET's duties; the rest of
// this server's per-connection state is AUTH and READONLY, which RESET
// also clears).
func (s *session) reset(context.Context, *Client, resp.Command) resp.Value {
	s.subMu.Lock()
	s.channels = make(map[string]struct{})
	s.patterns = make(map[string]struct{})
	s.subMu.Unlock()
	s.setReadPref(ReadPrimary)
	return resp.Str("RESET")
}

func (s *session) quit(context.Context, *Client, resp.Command) resp.Value {
	if s.push != nil {
		s.push.Push(resp.OK())
		s.push.Kick()
		return resp.NoReply()
	}
	return resp.OK()
}

// changes implements the CHANGES polling command:
//
//	CHANGES <token|0|$> [COUNT n]
//
// "0" starts from the beginning of retained history, "$" returns an
// empty page whose token is positioned at the current end of the logs
// (the XREAD idiom for "new events only"). The reply is a two-element
// array: the resume token for the next call, and an array of events,
// each [partition, seq, op, key, value] with a nil value for deletes.
func (s *session) changes(ctx context.Context, c *Client, cmd resp.Command) resp.Value {
	count := 256
	switch len(cmd.Args) {
	case 2:
		return wrongArgs(cmd.Name)
	case 3:
		if !strings.EqualFold(string(cmd.Args[1]), "COUNT") {
			return resp.Err("ERR syntax error")
		}
		n, err := strconv.Atoi(string(cmd.Args[2]))
		if err != nil || n <= 0 {
			return resp.Err("ERR value is not an integer or out of range")
		}
		count = n
	}
	token := string(cmd.Args[0])
	if token == "$" {
		tok, err := c.ChangesToken(ctx)
		if err != nil {
			return opErr(err)
		}
		return resp.Arr(resp.BulkStr(tok), resp.Arr())
	}
	if token == "0" {
		token = ""
	}
	page, err := c.ReadChanges(ctx, token, count)
	if err != nil {
		return changesErr(err)
	}
	events := make([]resp.Value, 0, len(page.Changes))
	for _, ev := range page.Changes {
		op, value := "set", resp.Bulk(ev.Value)
		if ev.Delete {
			op, value = "del", resp.Null()
		}
		events = append(events, resp.Arr(
			resp.Int64(int64(ev.Partition)), resp.Int64(int64(ev.Seq)),
			resp.BulkStr(op), resp.Bulk(ev.Key), value))
	}
	return resp.Arr(resp.BulkStr(page.Token), resp.Arr(events...))
}

// changesErr maps change-stream errors onto the wire, giving the two
// stream-specific conditions their own error classes so clients can
// react without string-matching.
func changesErr(err error) resp.Value {
	switch {
	case errors.Is(err, ErrBadToken):
		return resp.Err("BADTOKEN invalid change-stream token")
	case errors.Is(err, ErrHistoryTruncated):
		return resp.Err("HISTORYLOST change history truncated; resync and restart the stream")
	default:
		return opErr(err)
	}
}
