package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that -agree reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runAgree compares result file b against result file a, workload by
// workload and metric by metric: b disagrees when an end-to-end metric
// is worse than a's by more than the metric's bound, or when more of
// b's commands failed. It returns 0 when they agree, 1 when they do
// not, 2 when the files cannot be compared.
func runAgree(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	var a, b envelope
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(stderr, "bench -agree: %v\n", err)
			return 2
		}
	}
	if len(spec.EndToEnd) == 0 || a.Traced || b.Traced {
		fmt.Fprintln(stderr, "bench -agree: need BENCHMARK.json's end_to_end bounds and two untraced results")
		return 2
	}
	status, compared := 0, 0
	for _, ra := range a.Workloads {
		var rb *workloadResult
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		compared++
		fmt.Fprintf(stdout, "== %s\n", ra.Workload)
		if shareA, shareB := failShare(ra), failShare(rb); shareB > shareA {
			fmt.Fprintf(stdout, "   %-16s %14.6f -> %14.6f  HIGHER\n", "fail_share", shareA, shareB)
			status = 1
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			if va == 0 {
				fmt.Fprintf(stdout, "   %-16s missing or zero in %s\n", m.Name, aPath)
				status = 1
				continue
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OUTSIDE BOUND"
				status = 1
			}
			fmt.Fprintf(stdout, "   %-16s %14.4f -> %14.4f  worse by %+7.2f%% (bound %.0f%%)  %s\n",
				m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "bench -agree: the two results share no workload")
		return 2
	}
	return status
}

func failShare(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
