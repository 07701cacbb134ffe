package main

import (
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	wanted, err := parseExperiments("f4, t51,a4")
	if err != nil || len(wanted) != 3 || !wanted["f4"] || !wanted["t51"] || !wanted["a4"] {
		t.Fatalf("parseExperiments = %v, %v", wanted, err)
	}
	for _, bad := range []string{"f9", "f4,,t51", ""} {
		if _, err := parseExperiments(bad); err == nil || !strings.Contains(err.Error(), "known: all, t51") {
			t.Errorf("parseExperiments(%q) error = %v, want one listing the known ids", bad, err)
		}
	}
}

// TestUnknownExperimentExits2: an unmatched -exp must fail with status 2 before
// doing any work, not run nothing and exit 0.
func TestUnknownExperimentExits2(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-exp", "f4,f44"}, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, `unknown experiment "f44"`) || !strings.Contains(out, "known: all, t51") {
		t.Fatalf("stderr does not name the bad id and the known ones:\n%s", out)
	}
}
