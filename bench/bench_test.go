package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// small returns a copy of the named workload shrunk so that the whole
// smoke test stays quick: the mechanisms are the same, the sizes not.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.keys /= 16
	c.streamOps = 1 << 16
	c.warmOps = 2000
	c.ladderOps = 2000
	return &c
}

// TestSmoke runs every workload end to end, untraced and traced, and
// checks that every declared metric is measured and finite, that no
// command fails, and that ladder self-times are not negative.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, full := range workloads {
		w := small(t, full.name)
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, 1, time.Second, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res)
			if w.neighbor && res.Extra["over_quota_ratio"].Value <= 0 {
				t.Errorf("over_quota_ratio = %v, want the aggressor admitted above zero", res.Extra["over_quota_ratio"].Value)
			}

			res, err = runTraced(w, 1, 2*time.Second, out)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res)
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, "_self_ns") && m.Value < 0 {
					t.Errorf("%s = %v, want a non-negative self time", name, m.Value)
				}
			}
			if res.Metrics["trace.spans"].Value < float64(4*w.ladderOps) {
				t.Errorf("trace.spans = %v, want at least the ladder's %d", res.Metrics["trace.spans"].Value, 4*w.ladderOps)
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func check(t *testing.T, res *workloadResult) {
	t.Helper()
	if err := res.validate(); err != nil {
		t.Error(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v, %d of %d commands failed; first: %s", res.Correct, res.Failed, res.Attempted, res.FirstError)
	}
}

// TestContractLine checks the result line the benchmark driver parses.
func TestContractLine(t *testing.T) {
	res := &workloadResult{Correct: true, Attempted: 10, Metrics: map[string]metric{
		"setup_s": {Value: 1.25, Unit: "s", Better: "lower", Samples: 3},
	}}
	var got map[string]any
	if err := json.Unmarshal([]byte(contractLine(res)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] != true || got["attempted"] != 10.0 || got["failed"] != 0.0 {
		t.Errorf("contract line %v: want exactly correct, attempted, failed, metrics", got)
	}
	m := got["metrics"].(map[string]any)["setup_s"].(map[string]any)
	if len(m) != 2 || m["value"] != 1.25 || m["unit"] != "s" {
		t.Errorf("metric %v: want exactly value and unit", m)
	}
}

// TestValuesCheck checks that a reply is refused for the wrong key, a
// flipped bit or a wrong length, and accepted otherwise.
func TestValuesCheck(t *testing.T) {
	v := newValues(128, 1)
	val := v.append(nil, 42, 7)
	if seq, err := v.check(val, 42); err != nil || seq != 7 {
		t.Fatalf("check(own value) = %d, %v", seq, err)
	}
	if _, err := v.check(val, 43); err == nil {
		t.Error("a value for key 42 passed as key 43")
	}
	if _, err := v.check(val[:100], 42); err == nil {
		t.Error("a truncated value passed")
	}
	val[60] ^= 1
	if _, err := v.check(val, 42); err == nil {
		t.Error("a value with a flipped bit passed")
	}
}

// TestUnknownWorkload checks the exit code abase-bench also uses.
func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2; stderr %q", code, stderr.String())
	}
}

// TestAgree checks that -agree passes a result against itself and
// fails one whose throughput fell past the bound.
func TestAgree(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"ops_per_s","unit":"ops/s","better":"higher","bound":0.1}]}`), 0o644)
	write := func(name string, ops float64) string {
		path := filepath.Join(dir, name)
		env := envelope{Workloads: []*workloadResult{{Workload: "hot-d1", Attempted: 100,
			Metrics: map[string]metric{"ops_per_s": {Value: ops, Unit: "ops/s"}}}}}
		if err := writeJSON(path, env); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, slower := write("a.json", 1000), write("b.json", 850)
	var stdout, stderr bytes.Buffer
	if code := runAgree(spec, a, a, &stdout, &stderr); code != 0 {
		t.Errorf("a result against itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := runAgree(spec, a, slower, &stdout, &stderr); code != 1 {
		t.Errorf("15%% slower against a 10%% bound: exit %d, want 1", code)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly what spec.go measures.
func TestBenchmarkJSON(t *testing.T) {
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, declared []def, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Errorf("%s: %d metrics declared, %d defined", kind, len(declared), len(defined))
			return
		}
		for i, d := range defined {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s metric %d: declared %+v, defined %+v", kind, i, got, d)
			}
			if kind == "end_to_end" && (got.Bound <= 0 || got.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
