// Command abase-bench regenerates the paper's tables and figures and,
// with -json-out, writes one BENCH_<experiment>.json trajectory point
// per experiment that has one: batch, scan, hotspot, failover and soak.
// A trajectory point holds deterministic counts only, so regenerating
// the committed files in place must leave `git diff` empty; CI fails
// when it does not. Timings are printed in the tables, never written.
//
// Usage:
//
//	abase-bench -run all
//	abase-bench -run table1,fig6,fig9
//	abase-bench -run batch,scan,hotspot,failover,soak -json-out .
//
// Experiments: table1, fig3 (alias fig4), fig5, fig6, fig7, fig8a,
// fig8b, fig9, fig10, table2, util, batch, scan, hotspot, failover,
// shedding, cdc, soak, ablations. Unknown ids are rejected up front
// (exit 2) so a typo cannot silently skip a measurement.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"abase/internal/benchjson"
	"abase/internal/experiments"
	"abase/internal/sim"
	"abase/internal/soak"
)

// options carries the flag values into experiment runners.
type options struct {
	fig9Nodes int
}

// experiment is one registry entry: a primary id, optional aliases,
// and a runner that prints its tables and returns any trajectory
// points to be written as BENCH_<experiment>.json files.
type experiment struct {
	id      string
	aliases []string
	run     func(o options, out io.Writer) ([]benchjson.Result, error)
}

// tables wraps a runner that only prints paper tables and emits no
// trajectory point.
func tables(fn func(o options, out io.Writer)) func(options, io.Writer) ([]benchjson.Result, error) {
	return func(o options, out io.Writer) ([]benchjson.Result, error) {
		fn(o, out)
		return nil, nil
	}
}

// registry lists every experiment in presentation order. Batch, scan,
// hotspot, failover and soak return trajectory points; every other
// experiment prints tables only.
func registry() []experiment {
	return []experiment{
		{id: "table1", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Table1(experiments.Table1Opts{})
			t.Fprint(out)
		})},
		{id: "fig3", aliases: []string{"fig4"}, run: tables(func(o options, out io.Writer) {
			_, t := experiments.Figure34(experiments.Figure34Opts{})
			t.Fprint(out)
		})},
		{id: "fig5", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Figure5(experiments.Figure5Opts{})
			t.Fprint(out)
		})},
		{id: "fig6", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Figure6(experiments.Figure6Opts{})
			t.Fprint(out)
		})},
		{id: "fig7", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Figure7(experiments.Figure7Opts{})
			t.Fprint(out)
		})},
		{id: "fig8a", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Figure8a()
			t.Fprint(out)
		})},
		{id: "fig8b", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Figure8b(sim.OncallConfig{})
			t.Fprint(out)
		})},
		{id: "fig9", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Figure9(experiments.Figure9Opts{Nodes: o.fig9Nodes})
			t.Fprint(out)
		})},
		{id: "fig10", run: tables(func(o options, out io.Writer) {
			_, _, t := experiments.Figure10(experiments.Figure10Opts{})
			t.Fprint(out)
		})},
		{id: "table2", run: tables(func(o options, out io.Writer) {
			_, t := experiments.Table2(experiments.Table2Opts{})
			t.Fprint(out)
		})},
		{id: "util", run: tables(func(o options, out io.Writer) {
			_, _, t := experiments.UtilizationComparison(0, 0)
			t.Fprint(out)
		})},
		{id: "batch", run: func(o options, out io.Writer) ([]benchjson.Result, error) {
			points, t := experiments.BatchComparison(experiments.BatchOpts{})
			t.Fprint(out)
			return []benchjson.Result{experiments.BatchBench(points)}, nil
		}},
		{id: "scan", run: func(o options, out io.Writer) ([]benchjson.Result, error) {
			points, t := experiments.ScanThroughput(experiments.ScanOpts{})
			t.Fprint(out)
			return []benchjson.Result{experiments.ScanBench(points)}, nil
		}},
		{id: "hotspot", run: func(o options, out io.Writer) ([]benchjson.Result, error) {
			rows, split, t := experiments.HotspotMitigation(experiments.HotspotOpts{})
			t.Fprint(out)
			return []benchjson.Result{experiments.HotspotBench(rows, split)}, nil
		}},
		{id: "failover", run: func(o options, out io.Writer) ([]benchjson.Result, error) {
			res, t := experiments.FailoverAvailability(experiments.FailoverOpts{})
			t.Fprint(out)
			return []benchjson.Result{experiments.FailoverBench(res)}, nil
		}},
		{id: "shedding", run: tables(func(o options, out io.Writer) {
			_, t := experiments.DeadlineShedding(experiments.SheddingOpts{})
			t.Fprint(out)
		})},
		{id: "cdc", run: tables(func(o options, out io.Writer) {
			_, t := experiments.ChangeStreamFanout(experiments.ChangeStreamOpts{})
			t.Fprint(out)
		})},
		{id: "soak", run: func(o options, out io.Writer) ([]benchjson.Result, error) {
			report, err := soak.Run(context.Background(), soak.DefaultConfig())
			if err != nil {
				return nil, err
			}
			printSoak(out, report)
			return []benchjson.Result{report.ToResult()}, nil
		}},
		{id: "ablations", run: tables(func(o options, out io.Writer) {
			experiments.AblationSALRU(0).Fprint(out)
			experiments.AblationActiveUpdate().Fprint(out)
			experiments.AblationFanout(0).Fprint(out)
			experiments.AblationVFT().Fprint(out)
			experiments.AblationForecast().Fprint(out)
		})},
	}
}

// printSoak renders the soak report as a table matching the other
// experiments' presentation.
func printSoak(out io.Writer, r soak.Report) {
	fmt.Fprintf(out, "\n== Diurnal soak (%s simulated, seed %d) ==\n", r.SimulatedSpan, r.Seed)
	fmt.Fprintf(out, "ops issued        %d\n", r.OpsIssued)
	fmt.Fprintf(out, "acked writes      %d (lost: %d)\n", r.Acked, r.LostAcked)
	fmt.Fprintf(out, "availability      %.4f\n", r.Availability)
	fmt.Fprintf(out, "pool resizes      %d (peak %d nodes)\n", r.Resizes, r.PeakNodes)
	fmt.Fprintf(out, "failovers         %d\n", r.Failovers)
	fmt.Fprintf(out, "migrations        %d\n", r.Migrations)
	fmt.Fprintf(out, "RU billed         %.0f (net charged %.0f)\n", r.BilledRU, r.ChargedRU-r.RefundedRU)
	if r.BilledRU > 0 {
		fmt.Fprintf(out, "RU balance        %.6f (net charged / billed)\n", (r.ChargedRU-r.RefundedRU)/r.BilledRU)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(out, "%-17s p50 %v  p99 %v  (%d ops)\n", p.Name, p.P50, p.P99, p.Ops)
	}
	for _, ev := range r.ResizeEvents {
		fmt.Fprintf(out, "  resize @h%-3d %d -> %d nodes\n", ev.Hour, ev.From, ev.To)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abase-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runIDs := fs.String("run", "all", "comma-separated experiment ids (or 'all')")
	jsonOut := fs.String("json-out", "", "directory to write BENCH_<experiment>.json trajectory files into")
	nodes := fs.Int("fig9-nodes", 1000, "pool size for fig9")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{fig9Nodes: *nodes}

	exps := registry()
	known := map[string]*experiment{}
	var ids []string
	for i := range exps {
		known[exps[i].id] = &exps[i]
		ids = append(ids, exps[i].id)
		for _, a := range exps[i].aliases {
			known[a] = &exps[i]
			ids = append(ids, a)
		}
	}
	sort.Strings(ids)

	// Validate every requested id before running anything: a typo next
	// to valid ids must fail loudly, not silently skip a measurement.
	want := map[string]bool{}
	all := false
	var unknown []string
	for _, raw := range strings.Split(*runIDs, ",") {
		id := strings.TrimSpace(strings.ToLower(raw))
		if id == "" {
			continue
		}
		if id == "all" {
			all = true
			continue
		}
		if _, ok := known[id]; !ok {
			unknown = append(unknown, id)
			continue
		}
		want[known[id].id] = true
	}
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "unknown experiment id(s): %s\n", strings.Join(unknown, ", "))
		fmt.Fprintf(stderr, "known ids: %s all\n", strings.Join(ids, " "))
		return 2
	}
	if !all && len(want) == 0 {
		fmt.Fprintf(stderr, "no experiment ids given\n")
		fmt.Fprintf(stderr, "known ids: %s all\n", strings.Join(ids, " "))
		return 2
	}

	for _, e := range exps {
		if !all && !want[e.id] {
			continue
		}
		results, err := e.run(o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "abase-bench: %s: %v\n", e.id, err)
			return 1
		}
		if *jsonOut == "" {
			continue
		}
		for _, r := range results {
			path, err := benchjson.WriteFile(*jsonOut, r)
			if err != nil {
				fmt.Fprintf(stderr, "abase-bench: %s: %v\n", e.id, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	return 0
}
