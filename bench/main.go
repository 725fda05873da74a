// Command bench is the repository's benchmark: it starts an in-process
// abase cluster through the public API, serves it on a loopback RESP
// port, drives named workloads over real TCP from two generator
// goroutines with one connection each, verifies every reply, and
// prints every metric by name and unit. See README.md.
//
//	bash bench/run.sh -workload hot-d1 -seed 1            end-to-end metrics
//	bash bench/run.sh -workload churn -seed 1 -trace 1    per-layer metrics
//	bash bench/run.sh -agree a.json b.json                compare two results
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, for the last workload run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope is result.json: the fixed configuration and every
// workload's metrics.
type envelope struct {
	Benchmark string `json:"benchmark"`
	Claim     any    `json:"claim"` // null: a benchmark definition claims no gain
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
	GitCommit string `json:"git_commit"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	SimCost   string `json:"sim_cost"`
	Storage   string `json:"storage"`
	Cluster   string `json:"cluster"`
	Tenants   string `json:"tenants"`
	Generator string `json:"generator"`
	Windows   string `json:"windows"`

	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "comma-separated workload names (default: all)")
	seed := fs.Int64("seed", 1, "the only source of randomness")
	seconds := fs.Int("seconds", 24, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	outDir := fs.String("out", "bench/out", "directory for result.json and the span files")
	agree := fs.Bool("agree", false, "compare two result files against BENCHMARK.json's bounds")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition read by -agree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -agree a.json b.json")
			return 2
		}
		return runAgree(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and no other arguments given")
		return 2
	}

	selected := workloads
	if *workloadFlag != "" {
		selected = nil
		var unknown []string
		for _, name := range strings.Split(*workloadFlag, ",") {
			if w := workloadByName(strings.TrimSpace(name)); w != nil {
				selected = append(selected, w)
			} else {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "unknown workload(s): %s\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	dur := time.Duration(*seconds) * time.Second
	env := envelope{
		Benchmark: "abase/bench",
		Seed:      *seed,
		Seconds:   *seconds,
		Traced:    *trace == 1,
		GitCommit: gitCommit(),
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		SimCost:   "off (Cost and AdmitCost 1ns, below datanode.burn's 1us floor)",
		Storage:   "lavastore.NewMemFS, SyncWrites false, MemtableBytes 4 MiB, MaxTables 8, flush and compaction inline",
		Cluster:   "Nodes 3, Replicas 3, MonitorTrafficOnce every 2s",
		Tenants:   fmt.Sprintf("Partitions %d, Proxies %d, QuotaRU %.0f (aggressor %d)", tenantPartitions, tenantProxies, mainQuotaRU, aggressorQuotaRU),
		Generator: fmt.Sprintf("%d goroutines, one loopback TCP connection each", numConns),
		Windows: fmt.Sprintf("%d sub-windows of %v with %v of the null server between them; a metric is computed per sub-window, scaled by the box's speed and reduced by pick (run.go)",
			subWindows(dur), windowLen, refLen),
	}

	status := 0
	var last *workloadResult
	for _, w := range selected {
		var res *workloadResult
		var err error
		if *trace == 1 {
			res, err = runTraced(w, *seed, dur, *outDir)
		} else {
			res, err = runUntraced(w, *seed, dur, setupRepeats)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := res.validate(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: INCORRECT: %d of %d commands failed; first: %s\n",
				w.name, res.Failed, res.Attempted, res.FirstError)
			status = 1
		}
		env.Workloads = append(env.Workloads, res)
		last = res
		// Return the finished workload's memory before the next starts.
		runtime.GC()
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), env); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, contractLine(last))
	return status
}

// validate checks that the run produced exactly the declared metrics,
// each a finite number.
func (r *workloadResult) validate() error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(r.Metrics), len(defs))
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no command was attempted")
	}
	return nil
}

// contractLine is the one-line result the benchmark driver reads.
func contractLine(r *workloadResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

func printResult(w io.Writer, r *workloadResult) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s: %s — %d commands attempted, %d failed\n", r.Workload, kind, r.Attempted, r.Failed)
	printMetrics(w, r.Metrics)
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "   -- not gated:")
		printMetrics(w, r.Extra)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "   %-28s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if len(m.Windows) > 0 {
			fmt.Fprintf(w, " sub-windows[%d: min %.4f median %.4f max %.4f]", len(m.Windows), m.WindowMin, m.WindowMedian, m.WindowMax)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitCommit names the commit measured, read from .git in the working
// directory without starting a process, or "unknown" outside a git
// checkout (the benchmark driver's checkout is not one).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return name // a packed ref: the branch name still identifies it
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}
