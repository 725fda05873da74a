package proxy

import (
	"context"

	"abase/internal/datanode"
	"abase/internal/partition"
	"abase/internal/ru"
)

// Hash (Redis hash) operations forwarded to the primary DataNode.
// Complex-operation RU estimation happens on the node (§4.1); the
// proxy charges its quota with the pre-execution estimate — whole-hash
// operations (HLen, HGetAll, HDel) at the HGetAll estimate — and, the
// node's hash API reporting no RU, feeds traffic control that estimate.

// FieldValue is one field/value pair of a multi-field hash write.
type FieldValue = datanode.FieldValue

// HSet sets field=value in the hash at key.
func (p *Proxy) HSet(ctx context.Context, key []byte, field string, value []byte) (int, error) {
	return p.HSetMulti(ctx, key, []FieldValue{{Field: field, Value: value}})
}

// HSetMulti sets every field/value pair in one admission and ONE
// DataNode round trip — the whole command is a single read-modify-write
// on the node instead of one per pair. It returns how many fields were
// new.
func (p *Proxy) HSetMulti(ctx context.Context, key []byte, fvs []FieldValue) (added int, err error) {
	if len(fvs) == 0 {
		return 0, nil
	}
	// One read of the hash plus one write per command; charge the write
	// at the summed payload size.
	var payload int
	for _, fv := range fvs {
		payload += len(fv.Field) + len(fv.Value)
	}
	// Hashes are not proxy-cached; the write drops a stale plain entry.
	op := keyed{key: key, cost: p.est.EstimateReadRU() + ru.WriteRU(payload, 3), use: cacheInvalidate}
	err = p.point(ctx, op, func(node *datanode.Node, route partition.Route, _ float64) (float64, error) {
		var err error
		added, err = node.HSetMulti(ctx, route.Partition, key, fvs)
		return op.cost, err
	})
	return added, err
}

// HGet returns the value of field in the hash at key.
func (p *Proxy) HGet(ctx context.Context, key []byte, field string) (v []byte, err error) {
	op := keyed{key: key, cost: p.est.EstimateReadRU()}
	err = p.point(ctx, op, func(node *datanode.Node, route partition.Route, _ float64) (float64, error) {
		var err error
		v, err = node.HGet(ctx, route.Partition, key, field)
		return op.cost, err
	})
	return v, err
}

// HLen returns the number of fields in the hash at key.
func (p *Proxy) HLen(ctx context.Context, key []byte) (n int, err error) {
	op := keyed{key: key, cost: p.est.EstimateHGetAllRU()}
	err = p.point(ctx, op, func(node *datanode.Node, route partition.Route, _ float64) (float64, error) {
		var err error
		n, err = node.HLen(ctx, route.Partition, key)
		return op.cost, err
	})
	return n, err
}

// HGetAll returns every field and value of the hash at key.
func (p *Proxy) HGetAll(ctx context.Context, key []byte) (m map[string][]byte, err error) {
	op := keyed{key: key, cost: p.est.EstimateHGetAllRU()}
	err = p.point(ctx, op, func(node *datanode.Node, route partition.Route, _ float64) (float64, error) {
		var err error
		m, err = node.HGetAll(ctx, route.Partition, key)
		return op.cost, err
	})
	return m, err
}

// HDel removes fields from the hash at key.
func (p *Proxy) HDel(ctx context.Context, key []byte, fields ...string) (n int, err error) {
	op := keyed{key: key, cost: p.est.EstimateHGetAllRU(), use: cacheInvalidate}
	err = p.point(ctx, op, func(node *datanode.Node, route partition.Route, _ float64) (float64, error) {
		var err error
		n, err = node.HDel(ctx, route.Partition, key, fields...)
		return op.cost, err
	})
	return n, err
}

// Fleet hash forwarding: route by key, then delegate.

// HSet routes and sets a hash field.
func (f *Fleet) HSet(ctx context.Context, key []byte, field string, value []byte) (int, error) {
	return f.Route(key).HSet(ctx, key, field, value)
}

// HSetMulti routes and sets several hash fields as one admission.
func (f *Fleet) HSetMulti(ctx context.Context, key []byte, fvs []FieldValue) (int, error) {
	return f.Route(key).HSetMulti(ctx, key, fvs)
}

// HGet routes and reads a hash field.
func (f *Fleet) HGet(ctx context.Context, key []byte, field string) ([]byte, error) {
	return f.Route(key).HGet(ctx, key, field)
}

// HLen routes and returns a hash's field count.
func (f *Fleet) HLen(ctx context.Context, key []byte) (int, error) {
	return f.Route(key).HLen(ctx, key)
}

// HGetAll routes and returns a hash's full contents.
func (f *Fleet) HGetAll(ctx context.Context, key []byte) (map[string][]byte, error) {
	return f.Route(key).HGetAll(ctx, key)
}

// HDel routes and deletes hash fields.
func (f *Fleet) HDel(ctx context.Context, key []byte, fields ...string) (int, error) {
	return f.Route(key).HDel(ctx, key, fields...)
}
