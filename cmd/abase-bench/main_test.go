package main

import (
	"bytes"
	"strings"
	"testing"

	"abase/internal/benchjson"
)

// TestUnknownExperimentID pins the validation contract: an unknown id
// — even next to valid ones — runs nothing, prints the known-id list
// to stderr, and exits 2.
func TestUnknownExperimentID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "scan,figg9"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "figg9") {
		t.Fatalf("stderr does not name the bad id: %q", stderr.String())
	}
	for _, id := range []string{"table1", "fig9", "batch", "scan", "hotspot", "failover", "shedding", "soak", "ablations", "all"} {
		if !strings.Contains(stderr.String(), id) {
			t.Errorf("known-id list missing %q: %q", id, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("experiments ran despite the unknown id: %q", stdout.String())
	}
}

// TestEmptyRunList rejects an empty -run value the same way.
func TestEmptyRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", " , "}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "known ids:") {
		t.Fatalf("stderr missing known-id list: %q", stderr.String())
	}
}

// TestRunPointWritesTrajectory runs the cheapest measuring experiment
// end to end with -json-out next to two experiments that have no
// trajectory point, and checks that exactly one schema-valid
// BENCH_scan.json lands in the directory.
func TestRunPointWritesTrajectory(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "scan,shedding,cdc", "-json-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	results, err := benchjson.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Experiment != "scan" {
		t.Fatalf("trajectory files = %+v, want only BENCH_scan.json", results)
	}
	for _, name := range []string{"pages_p16", "pages_p64", "pages_p256"} {
		if m, ok := results[0].Metrics[name]; !ok || m.Value <= 0 || m.Unit != "pages" {
			t.Errorf("metric %q = %+v (present %v), want a positive page count", name, m, ok)
		}
	}
	if !strings.Contains(stdout.String(), "wrote ") {
		t.Errorf("stdout does not report the written file: %q", stdout.String())
	}
}
