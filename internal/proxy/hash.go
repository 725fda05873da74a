package proxy

import (
	"context"
	"errors"

	"abase/internal/datanode"
	"abase/internal/hashfield"
	"abase/internal/partition"
)

// Hash (Redis hash) operations. A hash is one encoded value under its
// key (internal/hashfield): a field write is a mutation the primary
// applies atomically (write), a field read is a Get this proxy decodes.
// Hashes are not proxy-cached.

// FieldValue is one field/value pair of a multi-field hash write.
type FieldValue = datanode.FieldValue

// HSet sets field=value in the hash at key.
func (p *Proxy) HSet(ctx context.Context, key []byte, field string, value []byte) (int, error) {
	return p.HSetMulti(ctx, key, []FieldValue{{Field: field, Value: value}})
}

// HSetMulti sets every field/value pair in one admission and ONE
// read-modify-write on the primary, keeping the key's TTL. It returns
// how many fields were new.
func (p *Proxy) HSetMulti(ctx context.Context, key []byte, fvs []FieldValue) (int, error) {
	if len(fvs) == 0 {
		return 0, nil
	}
	// The write drops a stale plain entry.
	res, err := p.write(ctx, cacheInvalidate, datanode.Mutation{Kind: datanode.MutSetFields, Key: key, Fields: fvs})
	return res.Count, err
}

// HDel removes fields from the hash at key as one read-modify-write on
// the primary, keeping the key's TTL; removing the last field deletes
// the key. It returns how many fields existed.
func (p *Proxy) HDel(ctx context.Context, key []byte, fields ...string) (int, error) {
	fvs := make([]FieldValue, len(fields))
	for i, f := range fields {
		fvs[i].Field = f
	}
	res, err := p.write(ctx, cacheInvalidate, datanode.Mutation{Kind: datanode.MutDelFields, Key: key, Fields: fvs})
	return res.Count, err
}

// readHash reads and decodes the hash at key, admitted at cost, and
// hands it to pick inside the request — so a field pick misses as a
// not-found read, counted and billed like one. An absent key reads as
// the empty hash (a stored hash always has at least one field). The
// decoded length feeds the complex-operation estimate (§4.1).
func (p *Proxy) readHash(ctx context.Context, key []byte, cost float64, pick func(m map[string][]byte) error) error {
	return p.point(ctx, keyed{key: key, cost: cost}, func(node *datanode.Node, route partition.Route, _ access) (float64, error) {
		res, err := node.Get(ctx, route.Partition, key)
		if err != nil && !errors.Is(err, datanode.ErrNotFound) {
			return 0, err
		}
		m, err := hashfield.Decode(res.Value)
		if err != nil {
			return 0, err
		}
		if len(m) > 0 {
			p.est.ObserveCollectionLen(len(m))
		}
		return res.RU, pick(m)
	})
}

// HGet returns the value of field in the hash at key.
func (p *Proxy) HGet(ctx context.Context, key []byte, field string) (v []byte, err error) {
	err = p.readHash(ctx, key, p.est.EstimateReadRU(), func(m map[string][]byte) error {
		var ok bool
		if v, ok = m[field]; !ok {
			return datanode.ErrNotFound
		}
		return nil
	})
	return v, err
}

// HLen returns the number of fields in the hash at key.
func (p *Proxy) HLen(ctx context.Context, key []byte) (int, error) {
	all, err := p.HGetAll(ctx, key)
	return len(all), err
}

// HGetAll returns every field and value of the hash at key. Whole-hash
// reads are admitted at the HGetAll estimate: a length query plus a scan
// of the expected number of fields.
func (p *Proxy) HGetAll(ctx context.Context, key []byte) (all map[string][]byte, err error) {
	err = p.readHash(ctx, key, p.est.EstimateHGetAllRU(), func(m map[string][]byte) error {
		all = m
		return nil
	})
	return all, err
}
