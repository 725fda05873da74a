package datanode

// This file is the data-plane surface of the change-stream subsystem:
// reading a partition's committed change log (Changes), waking pollers
// on commit (ChangesSignal), and pinning WAL history against rotation
// while a subscriber still needs it (HoldChanges / ReleaseChanges).
//
// Change reads are SYSTEM traffic, like replication applies: they skip
// the tenant quota and the WFQ — a cache-invalidation consumer racing
// to catch up must not be throttled into falling further behind, and
// the read is bounded (max events per call) so it cannot starve the
// scheduler the way an unbounded scan could.

import (
	"context"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
)

// MaxChangeBatch caps one Changes call's event count; larger requests
// are clamped. Bounding the batch bounds both the engine lock hold
// time of the underlying Replay and the response size.
const MaxChangeBatch = 1024

// ChangeBatch is one page of a partition's change log.
type ChangeBatch struct {
	// Events are the committed writes in sequence order (possibly
	// empty when the caller is already caught up).
	Events []lavastore.ChangeEvent
	// Next is the sequence to request on the next call.
	Next uint64
	// End is the partition's current acknowledged end of log: the
	// caller is caught up when Next > End.
	End uint64
}

// changeHold is one holder's claim on change history: sequences at or
// above floor must stay replayable until the hold is released or
// expires. The deadline is the crash-safety valve — a subscriber that
// dies without releasing stops pinning WAL segments once its hold
// lapses (holders refresh the deadline on every poll).
type changeHold struct {
	floor    uint64
	deadline time.Time
}

// signalCommit flips every registered watcher's ready bit. Called from
// the engine's commit hook (under the engine lock) — channel sends are
// non-blocking, so a slow poller never backpressures the write path;
// it simply finds the bit already set when it next looks.
func (r *replica) signalCommit() {
	r.watchMu.Lock()
	for _, ch := range r.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	r.watchMu.Unlock()
}

// Changes reads the partition's change log starting at sequence from
// (0 means from the oldest committed write), returning at most max
// events. Only the PRIMARY serves changes, and only up to its
// replication position: what it has committed and handed to
// replication. Followers apply those writes later, so a failover
// inside that window can lose an event a subscriber has already seen
// (TestChangesServesAheadOfFollowers). A from below the retention floor
// fails with lavastore.ErrHistoryTruncated (wrapped,
// errors.Is-matchable).
func (n *Node) Changes(ctx context.Context, pid partition.ID, from uint64, max int) (ChangeBatch, error) {
	if err := ctx.Err(); err != nil {
		return ChangeBatch{}, err
	}
	rep, err := n.getReplica(pid)
	if err != nil {
		return ChangeBatch{}, err
	}
	if !rep.isPrimary() {
		return ChangeBatch{}, ErrNotPrimary
	}
	if max <= 0 || max > MaxChangeBatch {
		max = MaxChangeBatch
	}
	if from == 0 {
		from = 1
	}
	n.expireHolds(rep)
	end := rep.replPos.Load()
	if from > end {
		return ChangeBatch{Next: from, End: end}, nil
	}
	to := end
	if span := from + uint64(max) - 1; span < to {
		to = span
	}
	evs, err := rep.db.Replay(from, to)
	if err != nil {
		return ChangeBatch{}, err
	}
	return ChangeBatch{Events: evs, Next: to + 1, End: end}, nil
}

// ChangesBounds returns the partition's replayable window: lo is the
// lowest sequence Changes can serve, end the acknowledged end of log.
// Token validation uses it to fail a stale resume token fast instead
// of on the first read.
func (n *Node) ChangesBounds(pid partition.ID) (lo, end uint64, err error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return 0, 0, err
	}
	lo, _ = rep.db.HistoryBounds()
	return lo, rep.replPos.Load(), nil
}

// ChangesSignal registers a commit watcher for the partition: the
// returned channel carries a ready bit that is set (never blocking the
// writer) each time a write commits. cancel unregisters and closes the
// channel. The signal is an optimization for tail-following pollers —
// a consumer that only polls periodically never needs it.
func (n *Node) ChangesSignal(pid partition.ID) (<-chan struct{}, func(), error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan struct{}, 1)
	rep.watchMu.Lock()
	if rep.watchers == nil {
		rep.watchers = make(map[int]chan struct{})
	}
	id := rep.watchN
	rep.watchN++
	rep.watchers[id] = ch
	rep.watchMu.Unlock()
	cancel := func() {
		rep.watchMu.Lock()
		if _, ok := rep.watchers[id]; ok {
			delete(rep.watchers, id)
			close(ch)
		}
		rep.watchMu.Unlock()
	}
	return ch, cancel, nil
}

// HoldChanges places (or refreshes) holder's claim that change history
// from floor onward must stay replayable, with a deadline of ttl from
// now. The engine's retention floor becomes the minimum across live
// holds, so WAL segments a subscriber could still Replay are not
// deleted at rotation. Subscriptions place holds on EVERY route member
// — each replica prunes its own WAL, and any follower may be the next
// primary.
func (n *Node) HoldChanges(pid partition.ID, holder string, floor uint64, ttl time.Duration) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	if floor == 0 {
		floor = 1
	}
	rep.holdMu.Lock()
	if rep.holds == nil {
		rep.holds = make(map[string]changeHold)
	}
	rep.holds[holder] = changeHold{floor: floor, deadline: n.cfg.Clock.Now().Add(ttl)}
	n.applyHoldsLocked(rep)
	rep.holdMu.Unlock()
	return nil
}

// ReleaseChanges drops holder's claim; with no claims left the engine
// returns to its default retention (flushed segments die at rotation).
func (n *Node) ReleaseChanges(pid partition.ID, holder string) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	rep.holdMu.Lock()
	delete(rep.holds, holder)
	n.applyHoldsLocked(rep)
	rep.holdMu.Unlock()
	return nil
}

// expireHolds lazily drops holds whose deadline passed. Evaluated on
// the read path (every Changes call) rather than a timer: a dead
// subscriber's hold lapses as soon as any live consumer touches the
// partition, and an idle partition pins at worst its own quiet WAL.
func (n *Node) expireHolds(rep *replica) {
	rep.holdMu.Lock()
	now := n.cfg.Clock.Now()
	changed := false
	for h, hold := range rep.holds {
		if now.After(hold.deadline) {
			delete(rep.holds, h)
			changed = true
		}
	}
	if changed {
		n.applyHoldsLocked(rep)
	}
	rep.holdMu.Unlock()
}

// applyHoldsLocked pushes the minimum live hold floor into the engine.
// +locked:rep.holdMu
func (n *Node) applyHoldsLocked(rep *replica) {
	now := n.cfg.Clock.Now()
	min := uint64(0)
	for _, hold := range rep.holds {
		if now.After(hold.deadline) {
			continue
		}
		if min == 0 || hold.floor < min {
			min = hold.floor
		}
	}
	if min == 0 {
		rep.db.ClearHistoryRetention()
		return
	}
	rep.db.SetHistoryRetention(min)
}
