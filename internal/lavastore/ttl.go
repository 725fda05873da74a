package lavastore

import (
	"errors"
	"time"
)

// ErrNoTTL is returned by TTL for keys that exist without an expiry.
var ErrNoTTL = errors.New("lavastore: key has no TTL")

// TTL returns the remaining time-to-live of key. It returns ErrNoTTL
// for keys without an expiry and ErrNotFound for absent or expired
// keys. The lookup charges the same I/O as a Get.
func (db *DB) TTL(key []byte) (time.Duration, error) {
	r, _, now, err := db.live(key)
	if err != nil {
		return 0, err
	}
	if r.ExpireAt == 0 {
		return 0, ErrNoTTL
	}
	return time.Unix(r.ExpireAt, 0).Sub(now), nil
}
