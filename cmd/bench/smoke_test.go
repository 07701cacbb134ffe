package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkloadPrintsTheDeclaredMetrics runs every workload, untraced
// and traced, on a corpus of one four-query trace with K=2, and holds the
// driver to BENCHMARK.json: the same workloads, and per run exactly the
// declared end-to-end (untraced) or per-layer (traced) metrics with their
// units. It runs under -short too; it is the test that keeps the two in step.
func TestSmokeEveryWorkloadPrintsTheDeclaredMetrics(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	def, err := loadDefinition(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver has %d", len(def.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if def.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, def.Workloads[i].Name, wl.name)
		}
	}
	if _, ok := workloadByName("no_such_workload"); ok {
		t.Error("an unknown workload resolved")
	}

	var stderr bytes.Buffer
	out := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{
				seed: 3, corpus: referenceSeed, seconds: 2 * referenceSeconds / float64(wl.passes), traced: traced,
				sessions: 2, setups: 2, users: 1, queries: 4, probeScale: 0.02,
				root: root, outDir: out, errw: &stderr,
			}
			res, err := runWorkload(wl, p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v\n%s",
					wl.name, traced, res.attempted, res.failed, res.problems, stderr.String())
			}
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			checkMetrics(t, wl.name, res, want, !traced)
			if traced {
				checkSpanFile(t, filepath.Join(out, wl.name+".trace.json"))
			}
		}
	}
}

func checkMetrics(t *testing.T, workload string, res *result, want []metricDef, nonZero bool) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range res.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("%s: metric %s printed twice", workload, m.name)
		}
		got[m.name] = m
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json declares %s, the run did not print it", workload, w.Name)
		case m.unit != w.Unit:
			t.Errorf("%s: %s printed in %q, declared in %q", workload, w.Name, m.unit, w.Unit)
		case nonZero && !(m.value > 0):
			t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", workload, w.Name, m.value)
		}
		delete(got, w.Name)
	}
	for name := range got {
		t.Errorf("%s: the run printed %s, which BENCHMARK.json does not declare", workload, name)
	}
}

// checkSpanFile checks the Chrome trace is valid JSON whose spans nest as the
// README says: pass > trace > op > layer call.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				ID     string `json:"id"`
				Span   int    `json:"span"`
				Parent int    `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	level := func(name string) int {
		switch {
		case name == "pass":
			return 0
		case name == "trace":
			return 1
		case strings.HasPrefix(name, "op."):
			return 2
		}
		return 3
	}
	// Span numbers restart per recorder; a parent precedes its children.
	var names []string
	seen := map[string]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Args.Span == 0 {
			names = names[:0]
		}
		names = append(names, ev.Name)
		seen[ev.Name] = true
		if ev.Args.Parent >= 0 {
			parent := names[ev.Args.Parent]
			if l, pl := level(ev.Name), level(parent); pl >= l && !(l == 3 && pl == 3) {
				t.Fatalf("%s: span %s (%s) sits under %s", path, ev.Name, ev.Args.ID, parent)
			}
		} else if ev.Name != "pass" {
			t.Fatalf("%s: root span is %s", path, ev.Name)
		}
	}
	for _, name := range []string{"pass", "trace", "op.edit", "op.go"} {
		if !seen[name] {
			t.Errorf("%s: no %s span", path, name)
		}
	}
}
