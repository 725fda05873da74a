// Golden file for rucharge: RU consumed by a limiter's Allow must be
// refunded on error returns that did no work, unless the return is
// deliberately annotated as keeping the charge.
package rutest

import (
	"errors"
	"time"
)

var errThrottled = errors.New("rutest: throttled")

type Bucket struct{ tokens float64 }

func (b *Bucket) Allow(cost float64) bool {
	if cost > b.tokens {
		return false
	}
	b.tokens -= cost
	return true
}

func (b *Bucket) Refund(cost float64) { b.tokens += cost }

func work() error { return nil }

// lose charges on admission, then loses the charge on the error path.
func lose(b *Bucket, cost float64) error {
	if !b.Allow(cost) {
		return errThrottled
	}
	if err := work(); err != nil {
		return err // want "loses the RU charged by Allow"
	}
	return nil
}

// refunds returns the tokens before surfacing the failure.
func refunds(b *Bucket, cost float64) error {
	if !b.Allow(cost) {
		return errThrottled
	}
	if err := work(); err != nil {
		b.Refund(cost)
		return err
	}
	return nil
}

// kept performed the work, so the charge deliberately stands.
func kept(b *Bucket, cost float64) error {
	if !b.Allow(cost) {
		return errThrottled
	}
	if err := work(); err != nil {
		// The engine executed the read; the failure reply still cost RU.
		return err // ru:final
	}
	return nil
}

// deferred covers all error returns with one deferred refund closure.
func deferred(b *Bucket, cost float64) (err error) {
	if !b.Allow(cost) {
		return errThrottled
	}
	defer func() {
		if err != nil {
			b.Refund(cost)
		}
	}()
	return work()
}

// PartitionLimiter is a limiter whose Allow takes the request's arrival
// time, read once by its plane.
type PartitionLimiter struct{ b Bucket }

func (p *PartitionLimiter) Allow(cost float64, now time.Time) bool { return p.b.Allow(cost) }

func (p *PartitionLimiter) Refund(cost float64) { p.b.Refund(cost) }

// loseAt charges at the arrival time, then loses the charge on the error
// path: the second argument does not hide the charge.
func loseAt(p *PartitionLimiter, cost float64, now time.Time) error {
	if !p.Allow(cost, now) {
		return errThrottled
	}
	if err := work(); err != nil {
		return err // want "loses the RU charged by Allow"
	}
	return nil
}

// refundsAt returns the tokens before surfacing the failure.
func refundsAt(p *PartitionLimiter, cost float64, now time.Time) error {
	if !p.Allow(cost, now) {
		return errThrottled
	}
	if err := work(); err != nil {
		p.Refund(cost)
		return err
	}
	return nil
}
