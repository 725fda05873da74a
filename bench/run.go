package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"abase/internal/lavastore"
)

// metric is one reported number. The contract line carries value and
// unit; result.json adds the rest.
type metric struct {
	Value        float64 `json:"value"`
	Unit         string  `json:"unit"`
	Better       string  `json:"better,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	WindowMin    float64 `json:"window_min,omitempty"`
	WindowMax    float64 `json:"window_max,omitempty"`
	WindowMedian float64 `json:"window_median,omitempty"`
	// Windows is the per-sub-window series the value was reduced from.
	Windows []float64 `json:"windows,omitempty"`
}

// workloadResult is what one run of one workload produced.
type workloadResult struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Extra holds numbers printed beside the contract's metrics: the
	// demoted metrics on an untraced run, and each set-up's time.
	Extra map[string]metric `json:"extra,omitempty"`
}

func (r *workloadResult) put(defs []metricDef, name string, m metric) {
	d := defOf(defs, name)
	if d.name == "" {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	m.Unit, m.Better = d.unit, d.better
	r.Metrics[name] = m
}

// session is a running env with the generator's connections open and
// warmed up, and their twins open against the null server.
type session struct {
	env   *env
	conns [numConns]*loadConn
	// ref are the closed-loop connections' twins: same stream, same
	// depth, against the null server. The open loop has none.
	ref [numConns]*loadConn
}

// inputs are a workload's seeded inputs, generated once per run.
type inputs struct {
	vals    *values
	aggVals *values
	streams [numConns][]uint32
}

func newInputs(w *workload, seed int64) *inputs {
	in := &inputs{vals: newValues(w.valueLen, seed)}
	in.streams[0] = w.stream(seed, 0)
	if w.neighbor {
		in.aggVals = newValues(aggressorValueLen, seed+1)
		in.streams[1] = aggressorStream(seed)
	} else {
		in.streams[1] = w.stream(seed, 1)
	}
	return in
}

// openSession is the whole set-up: cluster start, tenants, preload,
// connections, warm-up. It returns how long that took.
func openSession(w *workload, in *inputs, null *nullServer, fs lavastore.FS) (*session, time.Duration, error) {
	t0 := time.Now()
	e, err := startEnv(w, in.vals, fs)
	if err != nil {
		return nil, 0, err
	}
	s := &session{env: e}
	for i := range s.conns {
		open := w.neighbor && i == 1
		tenant, vals, keys, depth := w.mainTenant(), in.vals, w.keys, w.depth
		if open {
			tenant, vals, keys, depth = "aggressor", in.aggVals, aggressorKeys, aggressorPerTick
		}
		conn, err := e.dial(tenant)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.conns[i] = newLoadConn(i, conn, vals, in.streams[i], keys, depth)
		s.conns[i].open = open
		if open {
			continue
		}
		if conn, err = net.Dial("tcp", null.addr()); err != nil {
			s.close()
			return nil, 0, err
		}
		s.ref[i] = newLoadConn(i, conn, vals, in.streams[i], keys, depth)
		s.ref[i].exact = false // the null server keeps no writes
	}
	if _, err := drive(&s.conns, 0, w.warmOps, time.Time{}); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, time.Since(t0), nil
}

func (s *session) close() {
	for _, c := range append(s.conns[:], s.ref[:]...) {
		if c != nil {
			c.conn.Close()
		}
	}
	s.env.close()
}

// window is what one driven interval measured.
type window struct {
	elapsed time.Duration
	cpu     time.Duration // process CPU time used
	ok      int64         // closed-loop commands verified
	lat     latencies     // of the closed-loop commands, sorted

	attempted int64
	failed    int64

	// The open-loop connection's share, neighbor only.
	admitted int64
	refused  int64
	lateNs   []uint32

	// speed is how fast the box was around this interval: the null
	// server's rate over the workload's nominal one.
	speed float64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage fails only for a bad "who"; zeros then read as no usage.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// drive runs the generators of conns at once: for dur when positive,
// otherwise for maxOps commands per closed-loop connection (the
// warm-up; an open loop runs until the closed ones are done). Spans are
// recorded when traceBase is set.
func drive(conns *[numConns]*loadConn, dur time.Duration, maxOps int, traceBase time.Time) (*window, error) {
	w := &window{}
	type counters struct{ attempted, ok, failed, admitted, refused int64 }
	var (
		before     [numConns]counters
		lat        [numConns]latencies
		errs       [numConns]error
		wg         sync.WaitGroup
		closedDone atomic.Bool
	)
	for i, c := range conns {
		if c == nil {
			continue
		}
		before[i] = counters{c.attempted, c.ok, c.failed, c.admitted, c.refused}
		c.traceBase = traceBase
		c.lateNs = c.lateNs[:0]
	}
	cpu0, start := cpuTime(), time.Now()
	for i, c := range conns {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.open {
				errs[i] = c.runOpen(start, dur, &closedDone)
				return
			}
			errs[i] = c.runClosed(start, dur, maxOps, &lat[i])
			if dur == 0 {
				closedDone.Store(true)
			}
		}()
	}
	wg.Wait()
	w.elapsed, w.cpu = time.Since(start), cpuTime()-cpu0
	for i, c := range conns {
		if c == nil {
			continue
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("connection %d: %w", i, errs[i])
		}
		w.attempted += c.attempted - before[i].attempted
		w.failed += c.failed - before[i].failed
		if c.open {
			w.admitted = c.admitted - before[i].admitted
			w.refused = c.refused - before[i].refused
			w.lateNs = slices.Clone(c.lateNs)
			continue
		}
		w.ok += c.ok - before[i].ok
		w.lat.get = append(w.lat.get, lat[i].get...)
		w.lat.set = append(w.lat.set, lat[i].set...)
	}
	slices.Sort(w.lat.get)
	slices.Sort(w.lat.set)
	return w, nil
}

// boxSpeed drives the null server for refLen and returns its rate over
// the workload's nominal one: 1 on the box and the day the nominal rates
// were taken, lower when the box is slower.
func (s *session) boxSpeed() (float64, error) {
	w, err := drive(&s.ref, refLen, 0, time.Time{})
	if err != nil {
		return 0, fmt.Errorf("null server: %w", err)
	}
	if w.failed > 0 {
		return 0, fmt.Errorf("null server: %d replies failed verification; first: %v", w.failed, firstError(&s.ref))
	}
	return float64(w.ok) / w.elapsed.Seconds() / s.env.w.nullOpsPerSec, nil
}

func firstError(conns *[numConns]*loadConn) error {
	for _, c := range conns {
		if c != nil && c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// interval is a measured stretch: sub-windows of the workload, each
// with the box's speed beside it.
type interval []*window

// measure drives the workload for dur in sub-windows of windowLen with
// refLen of the null server before the first and after each. A
// sub-window's speed is the median of the speedSpan slices on either
// side of it: the box drifts over minutes, and a single slice can fall
// into work the system has left running (a compaction, the collector).
// The null server's share is part of dur.
func (s *session) measure(dur time.Duration, traceBase time.Time) (interval, error) {
	n := subWindows(dur)
	iv := make(interval, n)
	box := make([]float64, n+1)
	var err error
	for k := 0; k <= n; k++ {
		if box[k], err = s.boxSpeed(); err != nil {
			return nil, err
		}
		if k < n {
			if iv[k], err = drive(&s.conns, windowLen, 0, traceBase); err != nil {
				return nil, err
			}
		}
	}
	for k, w := range iv {
		w.speed = median(box[max(0, k+1-speedSpan):min(n+1, k+1+speedSpan)])
	}
	return iv, nil
}

// subWindows is how many sub-windows an interval of dur is cut into.
func subWindows(dur time.Duration) int { return max(1, int(dur/(windowLen+refLen))) }

// total sums the interval's sub-windows; its latencies are unsorted.
func (iv interval) total() window {
	var t window
	for _, w := range iv {
		t.elapsed += w.elapsed + refLen
		t.ok += w.ok
		t.attempted += w.attempted
		t.failed += w.failed
		t.admitted += w.admitted
		t.refused += w.refused
		t.lateNs = append(t.lateNs, w.lateNs...)
		t.lat.get = append(t.lat.get, w.lat.get...)
		t.lat.set = append(t.lat.set, w.lat.set...)
	}
	return t
}

// overQuotaRatio is the RU the aggressor was admitted per second over
// its quota. The seconds include the null server's share, during which
// the aggressor's token buckets refill too.
func (w *window) overQuotaRatio() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(w.admitted) * aggressorSetRU / w.elapsed.Seconds() / aggressorQuotaRU
}

// series are the per-sub-window values of the time-based metrics, each
// scaled to the box's nominal speed: a rate is divided by the
// sub-window's speed, a time multiplied by it.
func (iv interval) series(qs ...float64) (opsPerSec, cpuPerOp []float64, get, set [][]float64) {
	get, set = make([][]float64, len(qs)), make([][]float64, len(qs))
	for _, w := range iv {
		if w.ok == 0 {
			continue
		}
		opsPerSec = append(opsPerSec, float64(w.ok)/w.elapsed.Seconds()/w.speed)
		cpuPerOp = append(cpuPerOp, float64(w.cpu.Microseconds())/float64(w.ok)*w.speed)
		for i, q := range qs {
			if len(w.lat.get) > 0 {
				get[i] = append(get[i], quantile(w.lat.get, q)/1e3*w.speed)
			}
			if len(w.lat.set) > 0 {
				set[i] = append(set[i], quantile(w.lat.set, q)/1e3*w.speed)
			}
		}
	}
	return opsPerSec, cpuPerOp, get, set
}

// pick reduces a per-sub-window series to the reported value: the mean
// of the better half of the sub-windows. What disturbs a run on a
// shared sandbox (neighbours on the host, the collector, the kernel)
// only ever makes a sub-window slower; the single best sub-window is a
// lucky one wherever the work itself comes in bursts. The better half
// had the lowest worst-case spread of the estimators tried (README,
// "Steadiness"). The median over sub-windows is kept beside it.
func pick(series []float64, samples int, better string) metric {
	if len(series) == 0 {
		return metric{}
	}
	sorted := slices.Sorted(slices.Values(series))
	if better == "higher" {
		slices.Reverse(sorted)
	}
	half := sorted[:(len(sorted)+1)/2]
	sum := 0.0
	for _, v := range half {
		sum += v
	}
	return metric{Value: sum / float64(len(half)), Samples: samples, Windows: series,
		WindowMedian: median(series), WindowMin: slices.Min(series), WindowMax: slices.Max(series)}
}

// endToEnd computes what a tenant saw over the wire in the interval
// that t sums.
func (iv interval) endToEnd(t *window) map[string]metric {
	ops, cpu, get, set := iv.series(0.50, 0.95, 0.99)
	gets, sets := len(t.lat.get), len(t.lat.set)
	var speeds []float64
	for _, w := range iv {
		speeds = append(speeds, w.speed)
	}
	out := map[string]metric{
		"ops_per_s":        pick(ops, int(t.ok), "higher"),
		"cpu_us_per_op":    pick(cpu, int(t.ok), "lower"),
		"get_p50_us":       pick(get[0], gets, "lower"),
		"get_p95_us":       pick(get[1], gets, "lower"),
		"get_p99_us":       pick(get[2], gets, "lower"),
		"set_p50_us":       pick(set[0], sets, "lower"),
		"set_p95_us":       pick(set[1], sets, "lower"),
		"set_p99_us":       pick(set[2], sets, "lower"),
		"box.speed":        {Value: median(speeds), Samples: len(speeds), Windows: speeds},
		"peak_rss_end_mb":  {Value: peakRSSMB()},
		"over_quota_ratio": {Value: t.overQuotaRatio()},
	}
	if t.attempted > 0 {
		out["fail_share"] = metric{Value: float64(t.failed) / float64(t.attempted), Samples: int(t.attempted)}
	}
	return out
}

// finish sets the verdict: every command verified, and on neighbor the
// aggressor held below the paper's burst ceiling over the interval t
// sums. An interval shorter than hardCheckMinWindow mostly measures the
// token buckets' initial burst, so the ceiling is not enforced on it.
func (r *workloadResult) finish(s *session, t window) {
	for _, c := range s.conns {
		r.Attempted += c.attempted
		r.Failed += c.failed
	}
	if err := firstError(&s.conns); err != nil {
		r.FirstError = err.Error()
	}
	r.Correct = r.Failed == 0
	if overQuota := t.overQuotaRatio(); t.elapsed >= hardCheckMinWindow && overQuota > overQuotaHardLimit {
		r.Correct = false
		if r.FirstError == "" {
			r.FirstError = fmt.Sprintf("over_quota_ratio %.3f exceeds the hard limit %.1f", overQuota, overQuotaHardLimit)
		}
	}
}

// runUntraced measures the end-to-end metrics of w: set-up setups
// times (the median is setup_s), then one measured interval on the last.
func runUntraced(w *workload, seed int64, dur time.Duration, setups int) (*workloadResult, error) {
	in := newInputs(w, seed)
	res := &workloadResult{Workload: w.name, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	null, err := startNull(in.vals)
	if err != nil {
		return nil, err
	}
	defer null.close()
	var took []float64
	var sess *session
	for i := 0; i < setups; i++ {
		if sess != nil {
			sess.close()
			// Each set-up starts from a collected heap, so that
			// peak_rss_mb does not depend on when the collector last ran.
			runtime.GC()
		}
		var d time.Duration
		if sess, d, err = openSession(w, in, null, nil); err != nil {
			return nil, err
		}
		// Scaled like every other time, by the box's speed right after.
		var speeds [setupSpeedSlices]float64
		for j := range speeds {
			if speeds[j], err = sess.boxSpeed(); err != nil {
				sess.close()
				return nil, err
			}
		}
		took = append(took, d.Seconds()*median(speeds[:]))
		res.Extra[fmt.Sprintf("setup_%d_raw_s", i+1)] = metric{Value: d.Seconds(), Unit: "s"}
	}
	defer sess.close()
	// Memory is read when the set-ups end, after a fixed amount of work
	// (preload and warm-up): at the end of the timed interval it would
	// grow with the number of SETs the interval had time for, and a
	// faster system would look like a fatter one.
	res.put(endToEnd, "peak_rss_mb", metric{Value: peakRSSMB(), Samples: len(took)})

	iv, err := sess.measure(dur, time.Time{})
	if err != nil {
		return nil, err
	}
	res.put(endToEnd, "setup_s", metric{Value: median(took), Samples: len(took), Windows: took})
	t := iv.total()
	for name, m := range iv.endToEnd(&t) {
		if isDeclared(endToEnd, name) {
			res.put(endToEnd, name, m)
		} else {
			def := defOf(perLayer, name)
			m.Unit, m.Better = def.unit, def.better
			res.Extra[name] = m
		}
	}
	if w.neighbor {
		res.Extra["gen.late_p99_us"] = metric{Value: lateP99us(t.lateNs), Unit: "us", Samples: len(t.lateNs)}
	}
	res.finish(sess, t)
	return res, nil
}

func lateP99us(lateNs []uint32) float64 {
	s := slices.Sorted(slices.Values(lateNs))
	return quantile(s, 0.99) / 1e3
}

func isDeclared(defs []metricDef, name string) bool { return defOf(defs, name).name != "" }

func defOf(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	return metricDef{}
}
