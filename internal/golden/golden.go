// Package golden compares a test's output with a file it was recorded in, and
// rewrites the file instead when the test binary runs with -update:
//
//	go test ./internal/plan -run Golden -update
//
// Only _test.go files import it; it registers the -update flag.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Check compares got with the file at path and reports the first line where
// they differ; under -update it writes got to path instead. It reports whether
// the file now holds got, so a caller can add what a difference means.
func Check(t testing.TB, path, got string) bool {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (record it with -update)", err)
		return false
	}
	if got == string(want) {
		return true
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of file)"
	}
	t.Errorf("%s: first difference at line %d of %d (golden has %d):\n got: %s\nwant: %s",
		path, i+1, len(gl), len(wl), line(gl), line(wl))
	return false
}
