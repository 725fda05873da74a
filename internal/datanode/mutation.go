package datanode

import (
	"time"

	"abase/internal/hashfield"
	"abase/internal/ru"
)

// MutationKind names what a Mutation does to its key.
type MutationKind uint8

// The mutation kinds. The zero value is a put, so Mutation{Key, Value}
// is a plain write.
const (
	// MutPut stores Value under the PutOptions (Redis SET).
	MutPut MutationKind = iota
	// MutDelete removes the key; an absent key answers ErrNotFound and
	// writes no tombstone (Redis DEL counts only existing keys).
	MutDelete
	// MutSetFields sets Fields in the hash stored at the key, creating
	// it if absent (Redis HSET). Duplicates apply left to right.
	MutSetFields
	// MutDelFields removes the named Fields from the hash; removing the
	// last field deletes the key (Redis HDEL).
	MutDelFields
	// MutSetTTL replaces the key's expiry with TTL (Redis EXPIRE).
	MutSetTTL
	// MutClearTTL removes the key's expiry; a key without one is left
	// untouched (Redis PERSIST).
	MutClearTTL
)

// PutCond selects a conditional-write predicate (Redis SET NX/XX).
type PutCond int

// Conditional-write predicates.
const (
	// CondNone writes unconditionally.
	CondNone PutCond = iota
	// CondNX writes only when the key does not already exist.
	CondNX
	// CondXX writes only when the key already exists.
	CondXX
)

// PutOptions carries the typed per-op options of a put.
type PutOptions struct {
	// TTL sets the new record's expiry (0 = none unless KeepTTL). For
	// MutSetTTL it is the expiry to set. The primary turns it into a
	// deadline once, at the request's arrival (lavastore.Deadline); the
	// replicas store that deadline.
	TTL time.Duration
	// KeepTTL preserves the existing record's deadline instead of
	// clearing it (Redis SET KEEPTTL). Ignored when TTL is set.
	KeepTTL bool
	// Cond gates the write on the key's current existence.
	Cond PutCond
	// ReturnOld fetches the key's previous value (Redis SET ... GET).
	ReturnOld bool
}

// FieldValue is one field/value pair of a hash mutation (MutDelFields
// reads only Field).
type FieldValue struct {
	Field string
	Value []byte
}

// Mutation is one keyed write as a value: its kind and arguments, with
// nothing the receiving node has to call back for — the write op applies
// it to the key's current record inside one I/O stage, so it is atomic
// on the primary, and a wire protocol between the planes could carry it.
type Mutation struct {
	Kind  MutationKind
	Key   []byte
	Value []byte // MutPut
	PutOptions
	Fields []FieldValue // MutSetFields, MutDelFields
}

// need is how much of the key's current record a mutation must see
// before it can decide.
type need uint8

const (
	needNothing   need = iota // a plain put overwrites blindly: no probe
	needExistence             // record metadata: is it there, and its expiry
	needRecord                // the stored value too
)

func (m *Mutation) need() need {
	switch {
	case m.Kind == MutDelete:
		return needExistence
	case m.Kind == MutPut && m.Cond == CondNone && !m.KeepTTL && !m.ReturnOld:
		return needNothing
	default:
		return needRecord
	}
}

// size is the payload the mutation carries.
func (m *Mutation) size() int {
	n := len(m.Value)
	for _, fv := range m.Fields {
		n += len(fv.Field) + len(fv.Value)
	}
	return n
}

// AdmitRU is the pre-execution RU estimate a mutation is admitted at, on
// the node and (with the proxy's own estimator) at the proxy: the
// replicated write — at the payload's size, or for the kinds that
// rewrite the stored record in place at the expected record size — plus
// the probe read when the mutation needs the record.
func (m *Mutation) AdmitRU(est *ru.Estimator, replicas int) float64 {
	size := m.size()
	switch m.Kind {
	case MutDelFields, MutSetTTL, MutClearTTL:
		size = int(est.ExpectedReadSize())
	}
	cost := ru.WriteRU(size, replicas)
	if m.need() == needRecord {
		cost += est.EstimateReadRU()
	}
	return cost
}

// keyState is a key's record as a mutation sees it: the engine's answer,
// or what an earlier mutation of the same op made of it.
type keyState struct {
	known    need // how much of the rest is filled in (a mutation's result: all)
	exists   bool
	value    []byte
	expireAt int64 // deadline in Unix seconds, 0 = none
}

// effect is what a mutation makes of its key's current record.
type effect uint8

const (
	effLeave     effect = iota // nothing to write: unmet condition, no such field, no expiry to clear
	effWrite                   // store the returned state
	effTombstone               // delete the key
	effNotFound                // the mutation needs a key that is not there
)

// apply is the one decision function of every keyed write: it maps the
// key's current record to the mutation's effect, the state an effWrite
// stores, and the kind's own count — fields added (MutSetFields) or
// removed (MutDelFields), otherwise 1 when the record changed. err is a
// stored value the mutation cannot work on (hashfield.ErrNotHash).
// deadline is m.TTL as a deadline (lavastore.Deadline, 0 without one);
// every other kind of write keeps cur.expireAt or clears it.
func (m *Mutation) apply(cur keyState, deadline int64) (eff effect, next keyState, count int, err error) {
	switch m.Kind {
	case MutPut:
		if (m.Cond == CondNX && cur.exists) || (m.Cond == CondXX && !cur.exists) {
			return effLeave, cur, 0, nil
		}
		if deadline == 0 && m.KeepTTL {
			deadline = cur.expireAt
		}
		return effWrite, keyState{known: needRecord, exists: true, value: m.Value, expireAt: deadline}, 1, nil
	case MutDelete, MutSetTTL, MutClearTTL:
		switch {
		case !cur.exists:
			return effNotFound, cur, 0, nil
		case m.Kind == MutDelete:
			return effTombstone, keyState{known: needRecord}, 1, nil
		case m.Kind == MutClearTTL && cur.expireAt == 0:
			return effLeave, cur, 0, nil // already persistent: no write, nothing to replicate
		case m.Kind == MutClearTTL:
			deadline = 0
		}
		return effWrite, keyState{known: needRecord, exists: true, value: cur.value, expireAt: deadline}, 1, nil
	}
	// Field mutations: an absent key reads as the empty hash, and the
	// key's expiry is kept.
	h, err := hashfield.Decode(cur.value)
	if err != nil {
		return effLeave, cur, 0, err
	}
	for _, fv := range m.Fields {
		_, had := h[fv.Field]
		if m.Kind == MutSetFields {
			h[fv.Field] = fv.Value
		} else {
			delete(h, fv.Field)
		}
		if had == (m.Kind == MutDelFields) {
			count++
		}
	}
	switch {
	case len(m.Fields) == 0 || (m.Kind == MutDelFields && count == 0):
		return effLeave, cur, 0, nil
	case len(h) == 0:
		return effTombstone, keyState{known: needRecord}, count, nil // a stored hash has at least one field
	}
	return effWrite, keyState{known: needRecord, exists: true, value: hashfield.Encode(h), expireAt: cur.expireAt}, count, nil
}
