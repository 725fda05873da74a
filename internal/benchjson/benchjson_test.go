package benchjson

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() Result {
	return Result{
		Experiment: "batch",
		Metrics: map[string]Metric{
			"batched_tasks_per_key_b16": {0.0625, "tasks/key"},
			"looped_tasks_per_key_b16":  {1, "tasks/key"},
			"pages_p16":                 {129, "pages"},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := Write(&buf, in); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if out.Schema != SchemaVersion {
		t.Errorf("schema not stamped: got %d", out.Schema)
	}
	if out.Experiment != in.Experiment {
		t.Errorf("envelope mismatch: %+v", out)
	}
	if len(out.Metrics) != len(in.Metrics) {
		t.Fatalf("metrics count: got %d want %d", len(out.Metrics), len(in.Metrics))
	}
	if m := out.Metrics["batched_tasks_per_key_b16"]; m != in.Metrics["batched_tasks_per_key_b16"] {
		t.Errorf("metric round-trip mismatch: %+v", m)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteFile(dir, sample())
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if filepath.Base(path) != "BENCH_batch.json" {
		t.Errorf("unexpected file name %s", path)
	}
	rs, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(rs) != 1 || rs[0].Experiment != "batch" {
		t.Fatalf("ReadDir: %+v", rs)
	}
}

func TestReadDirEmpty(t *testing.T) {
	rs, err := ReadDir(t.TempDir())
	if err != nil {
		t.Fatalf("empty dir should not error: %v", err)
	}
	if len(rs) != 0 {
		t.Fatalf("want empty trajectory, got %d", len(rs))
	}
}

func TestValidation(t *testing.T) {
	mk := func(mut func(*Result)) Result {
		r := sample()
		r.Schema = SchemaVersion
		mut(&r)
		return r
	}
	cases := []struct {
		name    string
		r       Result
		wantErr string
	}{
		{"valid", mk(func(r *Result) {}), ""},
		{"version zero rejected on read", mk(func(r *Result) { r.Schema = -1 }), "schema version"},
		{"future schema rejected", mk(func(r *Result) { r.Schema = SchemaVersion + 1 }), "schema version"},
		{"older schema rejected", mk(func(r *Result) { r.Schema = SchemaVersion - 1 }), "schema version"},
		{"empty experiment", mk(func(r *Result) { r.Experiment = "" }), "empty experiment"},
		{"unsafe experiment id", mk(func(r *Result) { r.Experiment = "../evil" }), "not filename-safe"},
		{"no metrics", mk(func(r *Result) { r.Metrics = nil }), "no metrics"},
		{"NaN value", mk(func(r *Result) { r.Metrics["bad"] = Metric{math.NaN(), "x"} }), "not finite"},
		{"+Inf value", mk(func(r *Result) { r.Metrics["bad"] = Metric{math.Inf(1), "x"} }), "not finite"},
		{"-Inf value", mk(func(r *Result) { r.Metrics["bad"] = Metric{math.Inf(-1), "x"} }), "not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.r)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestWriteRejectsNaN(t *testing.T) {
	r := sample()
	r.Metrics["oops"] = Metric{math.NaN(), "x"}
	if err := Write(&bytes.Buffer{}, r); err == nil {
		t.Fatal("Write accepted NaN metric")
	}
	if _, err := WriteFile(t.TempDir(), r); err == nil {
		t.Fatal("WriteFile accepted NaN metric")
	}
}

func TestReadToleratesUnknownFieldsAndMetrics(t *testing.T) {
	// A future writer may add envelope fields and metric names this
	// reader has never heard of; both must round through untouched.
	raw := `{
	  "schema": 2,
	  "experiment": "batch",
	  "some_future_field": {"nested": true},
	  "metrics": {
	    "metric_from_the_future": {"value": 3, "unit": "zorps", "novel_annotation": "yes"}
	  }
	}`
	r, err := Read(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if r.Metrics["metric_from_the_future"].Value != 3 {
		t.Fatalf("unknown metric not preserved: %+v", r.Metrics)
	}
}

func TestReadRejectsFutureSchema(t *testing.T) {
	raw := `{"schema": 99, "experiment": "batch", "metrics": {"m": {"value": 1, "unit": "x"}}}`
	if _, err := Read(strings.NewReader(raw)); err == nil {
		t.Fatal("Read accepted schema version 99")
	}
}

func TestReadRejectsMalformedJSON(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema": `)); err == nil {
		t.Fatal("Read accepted truncated JSON")
	}
	// JSON has no NaN literal; a file that smuggles one is malformed.
	if _, err := Read(strings.NewReader(`{"schema": 2, "experiment": "x", "metrics": {"m": {"value": NaN}}}`)); err == nil {
		t.Fatal("Read accepted NaN literal")
	}
}

func TestReadDirSurfacesBadFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteFile(dir, sample()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_broken.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("ReadDir ignored a corrupt trajectory file")
	}
}
