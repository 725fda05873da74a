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
	rec, err := db.getRecord(key)
	if err != nil {
		return 0, err
	}
	now := db.opt.Clock.Now()
	r, err := decodeRecord(rec)
	if err != nil {
		return 0, err
	}
	if r.Kind == kindDelete || r.expired(now.Unix()) {
		return 0, ErrNotFound
	}
	if r.ExpireAt == 0 {
		return 0, ErrNoTTL
	}
	return time.Unix(r.ExpireAt, 0).Sub(now), nil
}

// getRecord finds the newest raw record for key across the memtable,
// immutable memtables, and SSTables.
func (db *DB) getRecord(key []byte) ([]byte, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, ErrClosed
	}
	mem := db.mem
	imm := db.imm
	tables := append([]*Table(nil), db.tables...)
	db.mu.RUnlock()

	if rec, ok := mem.Get(key); ok {
		return rec, nil
	}
	for i := len(imm) - 1; i >= 0; i-- {
		if rec, ok := imm[i].Get(key); ok {
			return rec, nil
		}
	}
	for _, t := range tables {
		rec, found, _, err := t.Get(key)
		if err != nil {
			return nil, err
		}
		if found {
			return rec, nil
		}
	}
	return nil, ErrNotFound
}
