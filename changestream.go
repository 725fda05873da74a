package abase

// This file is the client surface of the change-stream subsystem:
// push subscriptions (Subscribe), XREAD-style polling (ReadChanges),
// and time-travel replay (Replay). All three ride the per-partition
// change logs the engine keeps in its WAL; positions are engine
// sequence numbers that replicas share byte-for-byte, so the opaque
// resume tokens minted here survive primary failover — and survive
// tenant splits, because a split only appends partitions and a short
// token vector extends with zeros.
//
// Delivery semantics:
//
//   - Exactly once per resume across failover: resuming from an
//     event's Token re-delivers nothing at or below that event and
//     misses nothing above it, even when a different replica has been
//     promoted in between.
//   - At least once across splits: positions for newly appended
//     partitions start at zero, so keys rehashed into them replay
//     from the start of retained history.
//   - In order per key: a key's events arrive in commit order (a key
//     lives in one partition, and each partition's log is delivered
//     in sequence order).
//   - Deletes are never fabricated: the tombstones a split writes to
//     migrate keys off their source partition are suppressed, because
//     the key still exists — it just lives elsewhere now.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abase/internal/changestream"
	"abase/internal/datanode"
	"abase/internal/partition"
)

// Change-stream sentinel errors.
var (
	// ErrBadToken is returned when a resume token cannot be decoded
	// (or names a different tenant). Malformed tokens always error —
	// never resume at a wrong offset.
	ErrBadToken = changestream.ErrBadToken
	// ErrHistoryTruncated is returned when a token or replay range
	// points below the retained change history: the exact sequence of
	// events can no longer be reproduced, and the system says so
	// instead of silently skipping the gap. Re-sync (e.g. Scan) and
	// subscribe afresh.
	ErrHistoryTruncated = changestream.ErrHistoryTruncated
	// ErrSlowConsumer ends a subscription whose consumer stopped
	// draining Events: the buffer stayed full past the grace period.
	// Nothing is lost — resume from the last processed event's Token.
	ErrSlowConsumer = changestream.ErrSlowConsumer
)

// Change is one committed write delivered by the change stream.
type Change struct {
	// Partition is the partition index the write committed in.
	Partition int
	// Seq is the write's position in that partition's change log.
	Seq uint64
	// Key and Value are the written pair (Value nil for deletes).
	Key, Value []byte
	// Delete reports a tombstone.
	Delete bool
	// Token resumes the stream just after this event: pass it to
	// Subscribe or ReadChanges and delivery continues with the next
	// event, delivering this one and its predecessors never again.
	// Empty for Replay events (a replay is a read, not a position).
	Token string
}

// subSeq names subscriptions (and their retention holds) uniquely
// within the process.
var subSeq atomic.Uint64

// changeView is the client-side cursor state shared by the polling
// and push surfaces: a decoded token plus the paging logic that
// advances it.
type changeView struct {
	tok changestream.Token
}

// resolveToken builds the starting cursor for a stream: decode and
// validate a resume token, or mint a fresh one at the start of
// retained history (fromStart) or the current end of every log.
func (c *Client) resolveToken(ctx context.Context, resume string, fromStart bool) (changestream.Token, error) {
	n, err := c.fleet.NumPartitions()
	if err != nil {
		return changestream.Token{}, err
	}
	if resume != "" {
		tok, err := changestream.Decode(resume)
		if err != nil {
			return changestream.Token{}, err
		}
		if tok.Tenant != c.fleet.Tenant() {
			return changestream.Token{}, fmt.Errorf("%w: token for tenant %q used against %q",
				ErrBadToken, tok.Tenant, c.fleet.Tenant())
		}
		if len(tok.Positions) > n {
			return changestream.Token{}, fmt.Errorf("%w: token names %d partitions, tenant has %d",
				ErrBadToken, len(tok.Positions), n)
		}
		return tok.Extend(n), nil
	}
	tok := changestream.Token{Tenant: c.fleet.Tenant(), Positions: make([]uint64, n)}
	if fromStart {
		return tok, nil
	}
	for i := range tok.Positions {
		_, end, err := c.fleet.ChangesBounds(ctx, i)
		if err != nil {
			return changestream.Token{}, err
		}
		tok.Positions[i] = end
	}
	return tok, nil
}

// page reads one bounded round of events across all partitions,
// advancing the cursor. Migration tombstones (a split moving a key off
// its old partition) advance the cursor without being emitted: the key
// was not deleted, it moved. Each emitted event carries the token that
// resumes just past it.
func (c *Client) page(ctx context.Context, v *changeView, max int) ([]Change, error) {
	// A split since the last page only appends partitions; pick the
	// new ones up with zeroed positions.
	if n, err := c.fleet.NumPartitions(); err == nil && n > len(v.tok.Positions) {
		v.tok = v.tok.Extend(n)
	}
	var out []Change
	for part := range v.tok.Positions {
		for len(out) < max {
			budget := max - len(out)
			if budget > datanode.MaxChangeBatch {
				budget = datanode.MaxChangeBatch
			}
			batch, err := c.fleet.Changes(ctx, part, v.tok.Positions[part]+1, budget)
			if err != nil {
				return out, err
			}
			if len(batch.Events) == 0 {
				break
			}
			curN := len(v.tok.Positions)
			for _, ev := range batch.Events {
				v.tok.Positions[part] = ev.Seq
				if ev.Delete && partition.PartitionOf(ev.Key, curN) != part {
					continue // migration tombstone: the key moved, suppress
				}
				out = append(out, Change{
					Partition: part,
					Seq:       ev.Seq,
					Key:       ev.Key,
					Value:     ev.Value,
					Delete:    ev.Delete,
					Token:     v.tok.Encode(),
				})
			}
		}
		if len(out) >= max {
			break
		}
	}
	return out, nil
}

// ChangePage is one ReadChanges result: the events read and the token
// that continues the poll.
type ChangePage struct {
	Changes []Change
	// Token resumes after everything in Changes (even suppressed
	// migration tombstones — the cursor never re-reads them). Always
	// valid, also when Changes is empty.
	Token string
}

// ChangesToken returns a resume token positioned at the current end of
// every partition's change log: passing it to ReadChanges or Subscribe
// streams only events committed after this call (the XREAD "$" idiom).
func (c *Client) ChangesToken(ctx context.Context) (string, error) {
	tok, err := c.resolveToken(ctx, "", false)
	if err != nil {
		return "", err
	}
	return tok.Encode(), nil
}

// ReadChanges is the polling surface of the change stream (the XREAD
// shape): read up to max committed events past token, returning them
// with the token for the next call. An empty token starts from the
// beginning of retained history; ChangesToken mints a tail-only start.
// An empty page means the caller is caught up — poll again later. A
// token below retained history returns ErrHistoryTruncated rather
// than skipping the gap.
//
// Change reads are system traffic: they consume no tenant quota, and
// each call is bounded by max instead.
func (c *Client) ReadChanges(ctx context.Context, token string, max int) (ChangePage, error) {
	tok, err := c.resolveToken(ctx, token, true)
	if err != nil {
		return ChangePage{}, err
	}
	if max <= 0 {
		max = 256
	}
	v := changeView{tok: tok}
	events, err := c.page(ctx, &v, max)
	if err != nil {
		return ChangePage{}, err
	}
	return ChangePage{Changes: events, Token: v.tok.Encode()}, nil
}

// Replay is time travel: it returns partition part's committed events
// with sequence numbers in [from, to], exactly and in order, or fails.
// to == 0 means the current end of the log; a to beyond the end clamps
// to it (each event carries its Seq, so the reached bound is visible).
// If any part of the range has been pruned from retained history the
// result is ErrHistoryTruncated — never a silent gap. Replay is raw
// history: unlike subscriptions it includes the tombstones a split
// wrote to migrate keys, because that is what the log recorded.
func (c *Client) Replay(ctx context.Context, part int, from, to uint64) ([]Change, error) {
	if from == 0 {
		from = 1
	}
	_, end, err := c.fleet.ChangesBounds(ctx, part)
	if err != nil {
		return nil, err
	}
	if to == 0 || to > end {
		to = end
	}
	var out []Change
	for cur := from; cur <= to; {
		max := int(to - cur + 1)
		if max > datanode.MaxChangeBatch {
			max = datanode.MaxChangeBatch
		}
		batch, err := c.fleet.Changes(ctx, part, cur, max)
		if err != nil {
			return nil, err
		}
		if len(batch.Events) == 0 {
			// The engine proves ranges below its end; an empty batch
			// inside [from, to] means the range is gone.
			return nil, fmt.Errorf("%w: partition %d events %d..%d unavailable",
				ErrHistoryTruncated, part, cur, to)
		}
		for _, ev := range batch.Events {
			out = append(out, Change{Partition: part, Seq: ev.Seq, Key: ev.Key, Value: ev.Value, Delete: ev.Delete})
		}
		cur = batch.Events[len(batch.Events)-1].Seq + 1
	}
	return out, nil
}

// SubscribeOptions configures a push subscription.
type SubscribeOptions struct {
	// Resume continues a previous stream from one of its tokens.
	// Empty starts at the current end of the logs (new events only)
	// unless FromStart is set.
	Resume string
	// FromStart begins at the start of retained history instead of
	// the current end. Ignored when Resume is set.
	FromStart bool
	// Buffer is the Events channel capacity (default 256). When the
	// buffer stays full past SlowConsumerGrace the subscription fails
	// with ErrSlowConsumer rather than buffer without bound.
	Buffer int
	// SlowConsumerGrace is how long a delivery may block on a full
	// buffer before the subscription is declared slow (default 5s).
	SlowConsumerGrace time.Duration
}

const (
	// subPollEvery is a subscription's fallback poll cadence, used when
	// commit signals are quiet — after a failover re-routes the stream,
	// or for partitions appended by a split.
	subPollEvery = 25 * time.Millisecond
	// subHoldTTL is the lease on the retention holds a subscription
	// places so the history between polls outlives WAL pruning. Holds
	// refresh continuously and lapse on their own if the process dies.
	subHoldTTL = 30 * time.Second
)

// Subscription is a live change stream: a pump goroutine follows every
// partition's log and delivers committed events on Events in per-
// partition sequence order.
type Subscription struct {
	c      *Client
	holder string
	events chan Change
	cancel context.CancelFunc
	done   chan struct{}

	grace time.Duration

	mu  sync.Mutex
	tok changestream.Token
	err error

	sigCancels []func()
	wake       chan struct{}
}

// Subscribe opens a push subscription over the tenant's committed
// writes. Events are delivered on Events() until Close, ctx
// cancellation, or a terminal error (Err): ErrHistoryTruncated when a
// resume token's history has been pruned, ErrSlowConsumer when the
// consumer stops draining. Routine infrastructure trouble — a primary
// mid-failover, a route refresh — is retried inside the pump, not
// surfaced.
//
// The subscription holds WAL history at its cursor on every replica
// of every partition (leased, subHoldTTL) so the events between polls
// are never pruned out from under it.
func (c *Client) Subscribe(ctx context.Context, opts SubscribeOptions) (*Subscription, error) {
	tok, err := c.resolveToken(ctx, opts.Resume, opts.FromStart)
	if err != nil {
		return nil, err
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 256
	}
	if opts.SlowConsumerGrace <= 0 {
		opts.SlowConsumerGrace = 5 * time.Second
	}
	// Fail a stale resume fast, before the caller starts consuming.
	if opts.Resume != "" {
		for part, pos := range tok.Positions {
			lo, _, err := c.fleet.ChangesBounds(ctx, part)
			if err != nil {
				continue // unreachable partition: the pump will retry
			}
			if pos+1 < lo {
				return nil, fmt.Errorf("%w: partition %d resumes at %d, history starts at %d",
					ErrHistoryTruncated, part, pos+1, lo)
			}
		}
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Subscription{
		c:      c,
		holder: fmt.Sprintf("%s/sub-%d", c.fleet.Tenant(), subSeq.Add(1)),
		events: make(chan Change, opts.Buffer),
		cancel: cancel,
		done:   make(chan struct{}),
		grace:  opts.SlowConsumerGrace,
		tok:    tok,
		wake:   make(chan struct{}, 1),
	}
	s.refreshHolds(sctx)
	// Commit-signal forwarders give sub-interval wake-ups. They are
	// pinned to the nodes that are primary now; after a failover they
	// go quiet and the fallback poll carries the stream (a later
	// subscription re-pins). Best effort by design.
	for part := range tok.Positions {
		ch, sigCancel, err := c.fleet.ChangeSignal(sctx, part)
		if err != nil {
			continue
		}
		s.sigCancels = append(s.sigCancels, sigCancel)
		go func() {
			for range ch {
				select {
				case s.wake <- struct{}{}:
				default:
				}
			}
		}()
	}
	go s.pump(sctx)
	return s, nil
}

// Events returns the delivery channel. It closes when the
// subscription ends; check Err then.
func (s *Subscription) Events() <-chan Change { return s.events }

// Err reports why the subscription ended: nil after a clean Close (or
// while still live), the context error after cancellation, or a
// terminal stream error (ErrHistoryTruncated, ErrSlowConsumer).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Token returns a resume token covering every event delivered to the
// Events channel so far — including events still buffered there. To
// resume after the last event actually processed, use that event's
// own Token instead.
func (s *Subscription) Token() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tok.Encode()
}

// Close ends the subscription, releases its retention holds, and
// returns Err. Safe to call more than once.
func (s *Subscription) Close() error {
	s.cancel()
	<-s.done
	for _, c := range s.sigCancels {
		c()
	}
	s.sigCancels = nil
	// Holds release on a fresh context: the subscription ctx is gone.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.mu.Lock()
	n := len(s.tok.Positions)
	s.mu.Unlock()
	for part := 0; part < n; part++ {
		_ = s.c.fleet.ReleaseChanges(ctx, part, s.holder)
	}
	return s.Err()
}

// fail records the subscription's terminal error once.
func (s *Subscription) fail(err error) {
	s.mu.Lock()
	if s.err == nil && !errors.Is(err, context.Canceled) {
		s.err = err
	}
	s.mu.Unlock()
	s.cancel()
}

// refreshHolds re-leases the subscription's retention hold at the
// cursor on every partition (all route members — any follower may be
// promoted next).
func (s *Subscription) refreshHolds(ctx context.Context) {
	s.mu.Lock()
	positions := append([]uint64(nil), s.tok.Positions...)
	s.mu.Unlock()
	for part, pos := range positions {
		_ = s.c.fleet.HoldChanges(ctx, part, s.holder, pos+1, subHoldTTL)
	}
}

// pump is the subscription's delivery loop: page events from the
// partition logs, forward them to the consumer, renew holds, and idle
// on commit signals with a poll-interval fallback.
func (s *Subscription) pump(ctx context.Context) {
	defer close(s.done)
	defer close(s.events)
	// Hold renewal is time-based, not round-based: a busy stream
	// cycles rounds fast, an idle one slowly; both renew at ~1/3 TTL.
	nextHold := time.Now().Add(subHoldTTL / 3)
	for {
		if ctx.Err() != nil {
			s.fail(ctx.Err())
			return
		}
		if now := time.Now(); now.After(nextHold) {
			s.refreshHolds(ctx)
			nextHold = now.Add(subHoldTTL / 3)
		}
		// Deep-copy the cursor: page mutates Positions in place, and
		// Token() reads s.tok concurrently.
		s.mu.Lock()
		v := changeView{tok: changestream.Token{
			Tenant:    s.tok.Tenant,
			Positions: append([]uint64(nil), s.tok.Positions...),
		}}
		s.mu.Unlock()
		events, err := s.c.page(ctx, &v, datanode.MaxChangeBatch)
		// Deliver what was read even when the page ended in an error.
		for _, ev := range events {
			if !s.deliver(ctx, ev) {
				return
			}
		}
		s.mu.Lock()
		s.tok = v.tok
		s.mu.Unlock()
		switch {
		case err == nil:
		case errors.Is(err, ErrHistoryTruncated), errors.Is(err, ErrBadToken):
			s.fail(err)
			return
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			s.fail(ctx.Err())
			return
		default:
			// Transient infrastructure trouble (failover in flight,
			// node down): idle a beat and retry — positions are
			// stable, nothing can be missed.
		}
		if len(events) > 0 && err == nil {
			continue // keep draining a busy log before idling
		}
		t := time.NewTimer(subPollEvery)
		select {
		case <-ctx.Done():
			t.Stop()
			s.fail(ctx.Err())
			return
		case <-s.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// deliver forwards one event to the consumer, tolerating a full
// buffer for the slow-consumer grace period.
func (s *Subscription) deliver(ctx context.Context, ev Change) bool {
	select {
	case s.events <- ev:
		return true
	case <-ctx.Done():
		s.fail(ctx.Err())
		return false
	default:
	}
	t := time.NewTimer(s.grace)
	defer t.Stop()
	select {
	case s.events <- ev:
		return true
	case <-ctx.Done():
		s.fail(ctx.Err())
		return false
	case <-t.C:
		s.fail(ErrSlowConsumer)
		return false
	}
}
