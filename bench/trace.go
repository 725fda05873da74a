package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"abase"
	"abase/internal/cache"
	"abase/internal/datanode"
	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/resp"
	"abase/internal/wfq"
)

// The traced run yields the per-layer metrics. It times calls into
// each layer's public functions from here, in the benchmark's own
// files; spans inside the program are a later change.

const (
	ladderBlock = 500 // ops a rung runs before the next rung's turn
	// engineMult gives the engine rung more ops per block: its calls
	// are cheap, and its flush and compaction counts need volume.
	engineMult = 8
	// spanFileWindowCap bounds the traced interval's spans written per
	// connection; all of them are counted in trace.spans.
	spanFileWindowCap = 200000
)

// counts are the public counters read at the layer boundaries.
type counts struct {
	proxyHits, proxyMiss        int64 // main tenant
	proxyRejected, proxyShed    int64 // all tenants
	proxyErrors                 int64
	nodeHits, nodeMiss          int64 // main tenant
	nodeSuccess                 int64
	nodeRU                      float64
	nodeThrottled, nodeRequests int64 // all tenants
	charged, refunded           float64
	completed, ioServed         int64
	extraSpawns, rule3Skips     int64
	diskUsed                    int64
}

func takeCounts(e *env) counts {
	var c counts
	tenants := []*abase.Tenant{e.main}
	if e.other != nil {
		tenants = append(tenants, e.other)
	}
	nodes := e.cluster.Nodes()
	for i, t := range tenants {
		ps := t.Fleet().AggregateStats()
		c.proxyRejected += ps.Rejected
		c.proxyShed += ps.Shed
		c.proxyErrors += ps.Errors
		if i == 0 {
			c.proxyHits, c.proxyMiss = ps.CacheHits, ps.CacheMiss
		}
		for _, n := range nodes {
			ts := n.TenantStats(t.Name)
			c.nodeThrottled += ts.Throttled
			c.nodeRequests += ts.Success + ts.Throttled + ts.Shed + ts.Errors
			if i == 0 {
				c.nodeHits += ts.CacheHits
				c.nodeMiss += ts.CacheMiss
				c.nodeSuccess += ts.Success
				c.nodeRU += ts.RUUsed
			}
			charged, refunded := n.TenantRULedger(t.Name)
			c.charged += charged
			c.refunded += refunded
		}
	}
	for _, n := range nodes {
		for class := wfq.SmallRead; class <= wfq.LargeWrite; class++ {
			st := n.Scheduler().Queue(class).Stats()
			c.completed += st.Completed
			c.ioServed += st.IOServed
			c.extraSpawns += st.ExtraSpawns
			c.rule3Skips += st.Rule3Skips
		}
		c.diskUsed += n.Snapshot().DiskUsed
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rung is one step of the ladder: a layer's public GET and SET entry
// points, what they cost so far, and how often a GET went on to the
// rung below.
type rung struct {
	layer int
	mult  int
	get   func(idx uint32) ([]byte, error)
	set   func(idx uint32, value []byte) error
	// settle waits for work a SET leaves running after it returns, so
	// that its allocations are counted with the SET.
	settle func()
	// remap, when set, folds a key index into the keys this rung holds.
	remap func(idx uint32) uint32

	gets, sets           int64
	getNs, setNs         int64
	getAllocs, setAllocs uint64
	descended, reached   int64 // GETs that went below / GETs counted
	setSamples           []uint32
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// tracer holds the spans of one traced run.
type tracer struct {
	base  time.Time
	spans []span
	seq   uint64
	vals  *values
	calls int64 // ladder calls made, each a verified operation
	fails int64
	first error
}

func (t *tracer) fail(err error) {
	t.fails++
	if t.first == nil {
		t.first = err
	}
}

// runBlock replays ops against r: the block's GETs, then its SETs, so
// that allocations can be told apart. below reads the counter of calls
// that reached the rung below (nil when every call does).
func (t *tracer) runBlock(r *rung, ops []uint32, pos int, below func() (hit, miss int64)) {
	var gets, sets []uint32
	var getPos, setPos []uint32
	for i, op := range ops {
		idx := op &^ setBit
		if r.remap != nil {
			idx = r.remap(idx)
		}
		if op&setBit != 0 {
			sets, setPos = append(sets, idx), append(setPos, uint32(pos+i))
		} else {
			gets, getPos = append(gets, idx), append(getPos, uint32(pos+i))
		}
	}
	// Values are built before anything is counted: they are the
	// caller's bytes, as a command's arguments are the server's.
	values := make([][]byte, len(sets))
	for i, idx := range sets {
		t.seq++
		values[i] = t.vals.append(make([]byte, 0, t.vals.size), idx, t.seq)
	}

	var hit0, miss0 int64
	if below != nil {
		hit0, miss0 = below()
	}
	t.calls += int64(len(ops))
	m0 := mallocs()
	for i, idx := range gets {
		t0 := time.Now()
		v, err := r.get(idx)
		t1 := time.Now()
		if err == nil {
			_, err = t.vals.check(v, idx)
		}
		if err != nil {
			t.fail(fmt.Errorf("%s rung GET key %d: %w", layerNames[r.layer], idx, err))
			continue
		}
		r.gets++
		r.getNs += int64(t1.Sub(t0))
		t.spans = append(t.spans, span{layer: uint8(r.layer), ladder: true, idx: getPos[i],
			start: int64(t0.Sub(t.base)), end: int64(t1.Sub(t.base))})
	}
	m1 := mallocs()
	if below != nil {
		hit1, miss1 := below()
		r.descended += miss1 - miss0
		r.reached += (hit1 - hit0) + (miss1 - miss0)
	}
	for i, idx := range sets {
		t0 := time.Now()
		err := r.set(idx, values[i])
		t1 := time.Now()
		if err != nil {
			t.fail(fmt.Errorf("%s rung SET key %d: %w", layerNames[r.layer], idx, err))
			continue
		}
		r.sets++
		r.setNs += int64(t1.Sub(t0))
		r.setSamples = append(r.setSamples, clampNs(t1.Sub(t0)))
		t.spans = append(t.spans, span{layer: uint8(r.layer), ladder: true, set: true, idx: setPos[i],
			start: int64(t0.Sub(t.base)), end: int64(t1.Sub(t.base))})
	}
	if r.settle != nil {
		r.settle()
	}
	m2 := mallocs()
	r.getAllocs += m1 - m0
	r.setAllocs += m2 - m1
}

// descentShare is the share of this rung's GETs that called the rung
// below: 1 unless a cache sits at this rung.
func (r *rung) descentShare() float64 {
	if r.reached == 0 {
		return 1
	}
	return float64(r.descended) / float64(r.reached)
}

func (r *rung) meanGet() float64 { return ratio(float64(r.getNs), float64(r.gets)) }
func (r *rung) meanSet() float64 { return ratio(float64(r.setNs), float64(r.sets)) }

// runTraced produces the per-layer metrics of w: a traced window over
// the wire (counts, tails, tracing overhead against an untraced window
// on the same cluster), the ladder, and the standalone layers.
func runTraced(w *workload, seed int64, dur time.Duration, outDir string) (*workloadResult, error) {
	in := newInputs(w, seed)
	res := &workloadResult{Workload: w.name, Traced: true, Metrics: map[string]metric{}}
	put := func(name string, v float64) { res.put(perLayer, name, metric{Value: v}) }

	null, err := startNull(in.vals)
	if err != nil {
		return nil, err
	}
	defer null.close()
	cfs := newCountingFS(lavastore.NewMemFS())
	sess, _, err := openSession(w, in, null, cfs)
	if err != nil {
		return nil, err
	}
	defer sess.close()

	ref, err := sess.measure(dur/4, time.Time{})
	if err != nil {
		return nil, err
	}

	tr := &tracer{base: time.Now(), vals: in.vals, seq: 1 << 40}
	c0, f0 := takeCounts(sess.env), cfs.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win, err := sess.measure(dur/2, tr.base)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	goroutines := runtime.NumGoroutine()
	c1, f1 := takeCounts(sess.env), cfs.snapshot()

	t := win.total()
	putBoundaryCounts(put, c0, c1, float64(t.attempted))
	putStorage(put, w, sess, &t, f0, f1)
	putWire(put, win, &t)

	ops := float64(t.ok + t.admitted + t.refused)
	put("proc.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), ops))
	put("proc.alloc_bytes_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops))
	put("proc.gc_cycles", float64(m1.NumGC-m0.NumGC))
	put("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	put("proc.goroutines", float64(goroutines))
	// Tracing overhead: ops_per_s with spans on against spans off, same
	// cluster, same connections, each reduced like the end-to-end metric.
	refOps, _, _, _ := ref.series()
	winOps, _, _, _ := win.series()
	refRate, winRate := pick(refOps, 0, "higher").Value, pick(winOps, 0, "higher").Value
	put("trace.overhead_pct", 100*ratio(refRate-winRate, refRate))

	for _, c := range sess.conns {
		tr.spans = append(tr.spans, c.spans...)
		c.spans = nil
	}

	if err := tr.ladder(w, in, sess, put); err != nil {
		return nil, err
	}
	if err := rejects(sess, put); err != nil {
		return nil, err
	}
	standalone(w, in, put)

	put("trace.spans", float64(len(tr.spans)))
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".jsonl"), tr.spans); err != nil {
		return nil, err
	}

	res.finish(sess, t)
	res.Attempted += tr.calls
	res.Failed += tr.fails
	if tr.fails > 0 {
		res.Correct = false
		if res.FirstError == "" {
			res.FirstError = tr.first.Error()
		}
	}
	return res, nil
}

// putBoundaryCounts reports the counters read at the layer boundaries
// as deltas over the traced interval; commands is what the generators
// sent in it.
func putBoundaryCounts(put func(string, float64), c0, c1 counts, commands float64) {
	hits, miss := float64(c1.proxyHits-c0.proxyHits), float64(c1.proxyMiss-c0.proxyMiss)
	put("proxy.cache_hit_ratio", ratio(hits, hits+miss))
	proxyRefused := float64(c1.proxyRejected - c0.proxyRejected)
	nodeRefused := float64(c1.nodeThrottled - c0.nodeThrottled)
	put("proxy.rejected_share", ratio(proxyRefused, commands))
	put("proxy.shed", float64(c1.proxyShed-c0.proxyShed))
	put("proxy.errors", float64(c1.proxyErrors-c0.proxyErrors))
	put("proxy.intercept_share", ratio(proxyRefused, proxyRefused+nodeRefused))
	hits, miss = float64(c1.nodeHits-c0.nodeHits), float64(c1.nodeMiss-c0.nodeMiss)
	put("datanode.cache_hit_ratio", ratio(hits, hits+miss))
	put("datanode.throttled_share", ratio(nodeRefused, float64(c1.nodeRequests-c0.nodeRequests)))
	put("datanode.ru_per_op", ratio(c1.nodeRU-c0.nodeRU, float64(c1.nodeSuccess-c0.nodeSuccess)))
	put("datanode.ru_refunded_share", ratio(c1.refunded-c0.refunded, c1.charged-c0.charged))
	put("datanode.disk_used_mb", float64(c1.diskUsed)/1e6)
	put("wfq.io_stage_share", ratio(float64(c1.ioServed-c0.ioServed), float64(c1.completed-c0.completed)))
	put("wfq.extra_spawns", float64(c1.extraSpawns-c0.extraSpawns))
	put("wfq.rule3_skips", float64(c1.rule3Skips-c0.rule3Skips))
}

// putStorage reports the storage traffic of the traced interval. User
// bytes are counted once per acknowledged SET and live key, so the
// amplifications include the replication factor.
func putStorage(put func(string, float64), w *workload, sess *session, win *window, f0, f1 fsCounts) {
	gets, sets := len(win.lat.get), len(win.lat.set)
	userBytes := float64(sets*(keyLen+w.valueLen)) + float64(win.admitted)*float64(keyLen+aggressorValueLen)
	liveUser := float64(w.keys * (keyLen + w.valueLen))
	if w.neighbor {
		liveUser += float64(sess.conns[1].distinctWritten() * (keyLen + aggressorValueLen))
	}
	wal, sst := float64(f1.walWriteBytes-f0.walWriteBytes), float64(f1.sstWriteBytes-f0.sstWriteBytes)
	put("fs.write_amp", ratio(wal+sst, userBytes))
	put("fs.wal_write_amp", ratio(wal, userBytes))
	put("fs.space_amp", ratio(float64(f1.liveBytes), liveUser))
	put("fs.read_calls_per_get", ratio(float64(f1.readCalls-f0.readCalls), float64(gets)))
	put("fs.syncs", float64(f1.syncs-f0.syncs))
	put("fs.files_created", float64(f1.created-f0.created))
}

// putWire reports what the generators saw in the traced interval: the
// end-to-end metrics that do not gate, the tails the better half of the
// sub-windows hides, and how far the sub-windows differ.
func putWire(put func(string, float64), iv interval, win *window) {
	e2e := iv.endToEnd(win)
	for name, m := range e2e {
		if !isDeclared(endToEnd, name) {
			put(name, m.Value)
		}
	}
	getAll, setAll := win.lat.get, win.lat.set
	slices.Sort(getAll)
	slices.Sort(setAll)
	put("server.get_p999_us", quantile(getAll, 0.999)/1e3)
	put("server.set_p999_us", quantile(setAll, 0.999)/1e3)
	put("server.max_us", max(quantile(getAll, 1), quantile(setAll, 1))/1e3)
	p50 := e2e["get_p50_us"]
	put("server.window_spread_pct", 100*ratio(p50.WindowMax-p50.WindowMin, p50.WindowMedian))

	put("gen.late_p99_us", lateP99us(win.lateNs))
	put("aggressor.refused_share", ratio(float64(win.refused), float64(win.admitted+win.refused)))
	put("aggressor.admitted_per_s", ratio(float64(win.admitted), win.elapsed.Seconds()))
}

// ladder replays the workload's own stream, one caller, against each
// layer's entry point in turn, a block at a time so that drift and
// collector work fall on all rungs alike. The cluster rungs share the
// traced window's cluster; the engine rung is one standalone
// lavastore.DB holding one partition's keys.
func (t *tracer) ladder(w *workload, in *inputs, sess *session, put func(string, float64)) error {
	ctx := context.Background()
	e := sess.env
	tenant := e.main.Name

	keys := make([][]byte, w.keys)
	type primary struct {
		node  *datanode.Node
		pid   partition.ID
		epoch uint64
	}
	routes := make([]primary, w.keys)
	var held []uint32 // the keys of partition 0
	for i := range keys {
		keys[i] = appendKey(nil, uint32(i))
		route, err := e.cluster.Meta.RouteFor(tenant, keys[i])
		if err != nil {
			return err
		}
		node, err := e.cluster.Meta.Node(route.Primary)
		if err != nil {
			return err
		}
		routes[i] = primary{node, route.Partition, route.Epoch}
		if route.Partition.Index == 0 {
			held = append(held, uint32(i))
		}
	}

	db, err := lavastore.Open(lavastore.Options{FS: lavastore.NewMemFS(), Dir: "ladder"})
	if err != nil {
		return err
	}
	defer db.Close()
	for _, idx := range held {
		if err := db.Put(keys[idx], in.vals.append(nil, idx, 0), 0); err != nil {
			return err
		}
	}

	conn, err := e.dial(tenant)
	if err != nil {
		return err
	}
	defer conn.Close()
	scan := newReplyScanner(conn)
	var wbuf []byte
	roundTrip := func() (replyKind, []byte, error) {
		if _, err := conn.Write(wbuf); err != nil {
			return 0, nil, err
		}
		return scan.next()
	}

	fleet, client := e.main.Fleet(), e.main.Client()
	settle := e.cluster.Meta.FlushReplication
	rungs := []*rung{
		{layer: layerLavastore, mult: engineMult,
			remap: func(idx uint32) uint32 { return held[int(idx)%len(held)] },
			get: func(idx uint32) ([]byte, error) {
				r, err := db.Get(keys[idx])
				return r.Value, err
			},
			set: func(idx uint32, v []byte) error { return db.Put(keys[idx], v, 0) }},
		{layer: layerDatanode, mult: 1, settle: settle,
			get: func(idx uint32) ([]byte, error) {
				r, err := routes[idx].node.Get(ctx, routes[idx].pid, keys[idx])
				return r.Value, err
			},
			set: func(idx uint32, v []byte) error {
				_, err := routes[idx].node.PutAt(ctx, routes[idx].pid, routes[idx].epoch, keys[idx], v, 0)
				return err
			}},
		{layer: layerProxy, mult: 1, settle: settle,
			get: func(idx uint32) ([]byte, error) { return fleet.Get(ctx, keys[idx]) },
			set: func(idx uint32, v []byte) error { return fleet.Put(ctx, keys[idx], v, 0) }},
		{layer: layerClient, mult: 1, settle: settle,
			get: func(idx uint32) ([]byte, error) { return client.Get(ctx, keys[idx]) },
			set: func(idx uint32, v []byte) error { return client.Set(ctx, keys[idx], v) }},
		{layer: layerServer, mult: 1, settle: settle,
			get: func(idx uint32) ([]byte, error) {
				wbuf = appendGet(wbuf[:0], idx)
				kind, body, err := roundTrip()
				if err == nil && kind != replyBulk {
					err = fmt.Errorf("reply kind %d %q", kind, body)
				}
				return body, err
			},
			set: func(idx uint32, v []byte) error {
				wbuf = append(append(appendSetHeader(wbuf[:0], idx, len(v)), v...), '\r', '\n')
				kind, body, err := roundTrip()
				if err == nil && kind != replyOK {
					err = fmt.Errorf("reply kind %d %q", kind, body)
				}
				return err
			}},
	}
	nodes := e.cluster.Nodes()
	below := map[int]func() (hit, miss int64){
		layerDatanode: func() (hit, miss int64) {
			for _, n := range nodes {
				ts := n.TenantStats(tenant)
				hit, miss = hit+ts.CacheHits, miss+ts.CacheMiss
			}
			return hit, miss
		},
		layerProxy: func() (hit, miss int64) {
			ps := fleet.AggregateStats()
			return ps.CacheHits, ps.CacheMiss
		},
	}

	stream, pos := in.streams[0], sess.conns[0].pos
	for done := 0; done < w.ladderOps; done += ladderBlock {
		for _, r := range rungs {
			n := ladderBlock * r.mult
			if pos+n > len(stream) {
				pos = 0
			}
			t.runBlock(r, stream[pos:pos+n], pos, below[r.layer])
			pos += n
		}
	}

	for i, r := range rungs {
		name := layerNames[r.layer]
		put(name+".get_ns", r.meanGet())
		put(name+".set_ns", r.meanSet())
		put(name+".get_allocs", ratio(float64(r.getAllocs), float64(r.gets)))
		put(name+".set_allocs", ratio(float64(r.setAllocs), float64(r.sets)))
		if i == 0 {
			continue
		}
		// Self time: this rung's mean span less the part the rung below
		// covers, which is the share of calls that reached it times its
		// mean. Per-op subtraction would be wrong where a cache answers
		// without descending. Noise can push a thin layer's difference
		// below zero; a layer cannot take negative time, so floor it.
		lower := rungs[i-1]
		put(name+".get_self_ns", math.Max(0, r.meanGet()-r.descentShare()*lower.meanGet()))
		put(name+".set_self_ns", math.Max(0, r.meanSet()-lower.meanSet()))
	}

	engine := rungs[0]
	st := db.Stats()
	put("lavastore.flushes", float64(st.Flushes))
	put("lavastore.compactions", float64(st.Compactions))
	put("lavastore.tables", float64(st.Tables))
	put("lavastore.io_reads_per_get", ratio(float64(st.GetIOReads), float64(engine.gets)))
	slices.Sort(engine.setSamples)
	put("lavastore.set_p999_us", quantile(engine.setSamples, 0.999)/1e3)
	put("lavastore.set_max_us", quantile(engine.setSamples, 1)/1e3)
	return nil
}

// rejects measures what one refusal costs at each plane, against a
// tenant whose quota is already spent.
func rejects(sess *session, put func(string, float64)) error {
	const calls = 20000
	ctx := context.Background()
	e := sess.env
	tenant, err := e.cluster.CreateTenant(abase.TenantSpec{
		Name: "spent", QuotaRU: 1, Partitions: tenantPartitions, Proxies: tenantProxies,
	})
	if err != nil {
		return err
	}
	key := []byte("key-spent")
	value := make([]byte, aggressorValueLen)
	route, err := e.cluster.Meta.RouteFor(tenant.Name, key)
	if err != nil {
		return err
	}
	node, err := e.cluster.Meta.Node(route.Primary)
	if err != nil {
		return err
	}
	measure := func(call func() error, refusal error) float64 {
		var ns, n int64
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			err := call()
			d := time.Since(t0)
			if errors.Is(err, refusal) {
				ns += int64(d)
				n++
			}
		}
		return ratio(float64(ns), float64(n))
	}
	put("proxy.reject_ns", measure(func() error {
		return tenant.Fleet().Put(ctx, key, value, 0)
	}, abase.ErrThrottled))
	put("datanode.reject_ns", measure(func() error {
		_, err := node.PutAt(ctx, route.Partition, route.Epoch, key, value, 0)
		return err
	}, datanode.ErrThrottled))
	return nil
}

// standalone times the layers that have no rung of their own: the RESP
// codec over the workload's bytes in memory, one WFQ submission to
// completion, and a hit in each cache.
func standalone(w *workload, in *inputs, put func(string, float64)) {
	const n = 50000
	stream := in.streams[0][:n]

	// resp: decode the commands the generator sends, encode the
	// replies the server returns.
	var wire []byte
	replies := make([]resp.Value, n)
	value := in.vals.append(nil, 0, 0)
	for i, op := range stream {
		if op&setBit != 0 {
			wire = in.vals.appendSet(wire, op&^setBit, uint64(i))
			replies[i] = resp.OK()
		} else {
			wire = appendGet(wire, op)
			replies[i] = resp.Bulk(value)
		}
	}
	rd := resp.NewReader(bytes.NewReader(wire))
	m0, t0 := mallocs(), time.Now()
	for i := 0; i < n; i++ {
		if _, err := rd.ReadCommand(); err != nil {
			panic(fmt.Sprintf("bench: decoding the generator's own bytes: %v", err))
		}
	}
	put("resp.decode_ns", float64(time.Since(t0))/n)
	put("resp.decode_allocs", float64(mallocs()-m0)/n)
	wr := resp.NewWriter(io.Discard)
	m0, t0 = mallocs(), time.Now()
	for i := 0; i < n; i++ {
		// Write and Flush per reply, as resp.Server does today.
		if err := wr.Write(replies[i]); err == nil {
			err = wr.Flush()
		} else {
			panic(fmt.Sprintf("bench: encoding a reply: %v", err))
		}
	}
	put("resp.encode_ns", float64(time.Since(t0))/n)
	put("resp.encode_allocs", float64(mallocs()-m0)/n)

	// wfq: an empty task through the CPU stage to its Done.
	sched := wfq.NewScheduler(wfq.Config{})
	done := make(chan struct{}, 1)
	cpuStage := func() bool { return false }
	onDone := func() { done <- struct{}{} }
	const submits = 20000
	m0, t0 = mallocs(), time.Now()
	for i := 0; i < submits; i++ {
		sched.Submit(&wfq.Task{Tenant: "bench", Partition: "bench/0", Class: wfq.SmallRead,
			RUCost: 1, QuotaShare: 1, CPUStage: cpuStage, Done: onDone})
		<-done
	}
	put("wfq.submit_ns", float64(time.Since(t0))/submits)
	put("wfq.submit_allocs", float64(mallocs()-m0)/submits)
	sched.Close()

	// caches: a hit on every key of the stream, both caches sized to
	// hold the whole key set.
	names := make([]string, w.keys)
	for i := range names {
		names[i] = string(appendKey(nil, uint32(i)))
	}
	capacity := int64(w.keys) * int64(keyLen+w.valueLen) * 2
	sa := cache.NewSALRU(capacity)
	au := cache.NewAULRU(cache.AUConfig{Capacity: capacity, TTL: time.Hour})
	for _, name := range names {
		sa.Put(name, value)
		au.Put(name, value)
	}
	t0 = time.Now()
	for _, op := range stream {
		sa.Get(names[op&^setBit])
	}
	put("cache.salru_get_ns", float64(time.Since(t0))/n)
	t0 = time.Now()
	for _, op := range stream {
		au.Get(names[op&^setBit])
	}
	put("cache.aulru_get_ns", float64(time.Since(t0))/n)
}

// writeSpans writes one JSON object per span: every ladder span, and
// of the traced interval the first spanFileWindowCap of each
// connection, which keeps the file near 100 MB on the fastest workload.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	var written [numConns]int
	for _, s := range spans {
		if !s.ladder {
			if written[s.conn] == spanFileWindowCap {
				continue
			}
			written[s.conn]++
		}
		op, phase := "GET", "window"
		if s.set {
			op = "SET"
		}
		if s.ladder {
			phase = "ladder"
		}
		line = append(line[:0], `{"layer":"`...)
		line = append(line, layerNames[s.layer]...)
		line = append(line, `","op":"`...)
		line = append(line, op...)
		line = append(line, `","phase":"`...)
		line = append(line, phase...)
		line = append(line, `","conn":`...)
		line = strconv.AppendInt(line, int64(s.conn), 10)
		line = append(line, `,"idx":`...)
		line = strconv.AppendInt(line, int64(s.idx), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '}', '\n')
		bw.Write(line)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
