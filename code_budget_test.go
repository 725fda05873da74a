package abase

import (
	"bufio"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCodeBudget pins the size of the program: the non-blank,
// non-comment lines of its non-test Go files, one row per top-level
// part (each internal/<pkg> with its subpackages, cmd, examples, and
// the root package). bench/ is its own module and testdata holds test
// inputs, so neither counts. Rows are exact: a row fails when it grows
// and, so the table stays true, when it shrinks without being edited.
//
//	go test -run TestCodeBudget -v .
func TestCodeBudget(t *testing.T) {
	budget := map[string]int{
		".":                     1610,
		"cmd":                   821,
		"examples":              294,
		"internal/analysis":     1602,
		"internal/autoscaler":   110,
		"internal/benchjson":    117,
		"internal/cache":        582,
		"internal/changestream": 89,
		"internal/clock":        111,
		"internal/datanode":     1791,
		"internal/experiments":  2242,
		"internal/faultinject":  238,
		"internal/forecast":     530,
		"internal/glob":         85,
		"internal/hashfield":    55,
		"internal/hotspot":      354,
		"internal/lavastore":    1863,
		"internal/metaserver":   966,
		"internal/metrics":      319,
		"internal/partition":    51,
		"internal/proxy":        1426,
		"internal/quota":        207,
		"internal/rescheduler":  509,
		"internal/resp":         612,
		"internal/ru":           110,
		"internal/sim":          399,
		"internal/skiplist":     390,
		"internal/soak":         492,
		"internal/wfq":          534,
		"internal/workload":     368,
	}
	counted := codeLines(t)
	total := 0
	for _, part := range slices.Sorted(maps.Keys(counted)) {
		n := counted[part]
		total += n
		want, ok := budget[part]
		switch {
		case !ok:
			t.Errorf("%s: %d lines and no row; add one", part, n)
		case n != want:
			t.Errorf("%s: %d lines, row says %d: a row grows only with a reason in CHANGES.md, and a cut lowers it", part, n, want)
		}
	}
	for part := range budget {
		if _, ok := counted[part]; !ok {
			t.Errorf("%s: row for a part with no code; remove it", part)
		}
	}
	t.Logf("%d lines in all", total)
}

// codeLines counts each part's non-blank lines outside comments in the
// module's non-test Go files.
func codeLines(t *testing.T) map[string]int {
	counts := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" && filepath.Dir(path) == "." ||
				name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		n, err := fileCodeLines(path)
		counts[codePart(path)] += n
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// codePart names the budget row path belongs to.
func codePart(path string) string {
	parts := strings.Split(filepath.ToSlash(path), "/")
	switch {
	case len(parts) == 1:
		return "."
	case parts[0] == "internal" && len(parts) > 2:
		return "internal/" + parts[1]
	}
	return parts[0]
}

// fileCodeLines counts path's lines that hold code: not blank, and not
// only a // comment or part of a /* */ comment.
func fileCodeLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, inBlock := 0, false
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			end := strings.Index(line, "*/")
			if end < 0 {
				continue
			}
			inBlock, line = false, strings.TrimSpace(line[end+2:])
		}
		if strings.HasPrefix(line, "/*") && !strings.Contains(line, "*/") {
			inBlock = true
			continue
		}
		if line != "" && !strings.HasPrefix(line, "//") {
			n++
		}
	}
	return n, sc.Err()
}
