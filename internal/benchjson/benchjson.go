// Package benchjson defines the committed perf-trajectory schema
// emitted by cmd/abase-bench.
//
// Every measuring experiment writes one BENCH_<experiment>.json file: a
// versioned envelope holding a metrics map of value and unit. Every
// value is a count or a ratio of counts that a given tree reproduces
// exactly — no timings, no timestamps — so the gate is regenerating the
// files in place and requiring `git diff` to be empty. Wall-clock
// figures live in abase-bench's printed tables and in bench/.
package benchjson

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// SchemaVersion is the envelope version. Readers accept only this
// version: a file written under another schema is re-cut, not read.
const SchemaVersion = 2

// Metric is one deterministic value and its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the envelope for one experiment's metrics.
type Result struct {
	Schema     int               `json:"schema"`
	Experiment string            `json:"experiment"`
	Metrics    map[string]Metric `json:"metrics"`
}

// FileName returns the canonical file name for an experiment id.
func FileName(experiment string) string {
	return "BENCH_" + experiment + ".json"
}

// Validate checks a result against the schema rules shared by the
// writer and the reader: a known version, a filename-safe experiment
// id, and finite metric values (JSON has no NaN/Inf literal, and a
// trajectory point that is not a number is not a measurement).
func Validate(r Result) error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("benchjson: schema version %d, want %d", r.Schema, SchemaVersion)
	}
	if r.Experiment == "" {
		return fmt.Errorf("benchjson: empty experiment id")
	}
	for _, c := range r.Experiment {
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return fmt.Errorf("benchjson: experiment id %q not filename-safe", r.Experiment)
		}
	}
	if len(r.Metrics) == 0 {
		return fmt.Errorf("benchjson: experiment %q has no metrics", r.Experiment)
	}
	for name, m := range r.Metrics {
		if name == "" {
			return fmt.Errorf("benchjson: experiment %q has an unnamed metric", r.Experiment)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("benchjson: metric %s/%s value is not finite", r.Experiment, name)
		}
	}
	return nil
}

// Write validates r and encodes it as indented JSON. A zero Schema is
// stamped with the current version.
func Write(w io.Writer, r Result) error {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	if err := Validate(r); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes r to dir as BENCH_<experiment>.json and returns
// the path.
func WriteFile(dir string, r Result) (string, error) {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	if err := Validate(r); err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(r.Experiment))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := Write(f, r); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Read decodes and validates one result. Unknown metric names and
// unknown envelope fields are tolerated, but an envelope from another
// schema version is rejected outright.
func Read(rd io.Reader) (Result, error) {
	var r Result
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return Result{}, fmt.Errorf("benchjson: decode: %w", err)
	}
	if err := Validate(r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// ReadFile reads one BENCH_*.json file.
func ReadFile(path string) (Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	r, err := Read(f)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// ReadDir loads every BENCH_*.json in dir, sorted by experiment id.
// A directory with no trajectory files returns an empty slice, not an
// error.
func ReadDir(dir string) ([]Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []Result
	for _, p := range paths {
		r, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Experiment < out[j].Experiment })
	return out, nil
}
