// Command bench is the repository's wall-clock benchmark: it replays the
// three-user trace corpus against the engine under four workloads, checks
// every answer against a speculation-off oracle, and prints end-to-end
// metrics (or, with -trace 1, per-layer metrics and span files). See
// README.md beside this file and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run (default: all four, one after another)")
	seed := fs.Uint64("seed", referenceSeed, "replay order of the corpus' traces; 7 replays them as generated")
	corpusSeed := fs.Uint64("corpus", referenceSeed, "trace-generator seed; 7 is the corpus BENCH_spec.json pins")
	seconds := fs.Float64("seconds", 0, "measuring time per workload; sets the pass count K (default: BENCHMARK.json's run_seconds)")
	traced := fs.Int("trace", 0, "1: traced run, per-layer metrics and span files under cmd/bench/out")
	aa := fs.Int("aa", 0, "run the benchmark N times and compare the runs with each other")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "usage: bench [-workload W] [-seed N] [-corpus N] [-seconds S] [-trace 0|1] [-aa N]")
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	def, err := loadDefinition(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(def.RunSeconds)
	}
	selected := workloads
	if *workloadName != "" {
		wl, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{wl}
	}

	sessions := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(sessions)
	p := params{
		seed: *seed, corpus: *corpusSeed, seconds: *seconds, traced: *traced == 1,
		sessions: sessions, setups: 3, users: referenceUsers, probeScale: 1,
		root: root, outDir: filepath.Join(root, "cmd", "bench", "out"), errw: stderr,
	}

	if *aa > 0 {
		return compareRuns(selected, p, *aa, def, stdout, stderr)
	}
	code := 0
	for _, wl := range selected {
		res, err := runWorkload(wl, p)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		if err := printResult(stdout, stderr, res, p); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// printResult prints one workload's metrics as a table and, as the last
// line, the JSON object the benchmark contract asks for.
func printResult(stdout, stderr io.Writer, res *result, p params) error {
	fmt.Fprintf(stdout, "# %s  seed=%d corpus=%d traced=%v GOMAXPROCS=%d sessions=%d\n",
		res.workload, p.seed, p.corpus, p.traced, runtime.GOMAXPROCS(0), p.sessions)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-36s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, problem := range res.problems {
		fmt.Fprintf(stderr, "INCORRECT %s: %s\n", res.workload, problem)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err) // a NaN or Inf metric
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// definition mirrors BENCHMARK.json.
type definition struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot walks up from the working directory to the repository root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func loadDefinition(root string) (*definition, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &def, nil
}

// compareRuns is the -aa mode: the same code measured n times. Per workload
// and end-to-end metric it prints every run's value, the spread
// (max−min)/median, and whether that stays inside the metric's bound.
func compareRuns(selected []workload, p params, n int, def *definition, stdout, stderr io.Writer) int {
	p.traced = false
	code := 0
	values := map[string][]float64{} // workload/metric → one value per run
	for i := 0; i < n; i++ {
		for _, wl := range selected {
			res, err := runWorkload(wl, p)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
				return 1
			}
			if !res.correct() {
				for _, problem := range res.problems {
					fmt.Fprintf(stderr, "INCORRECT %s: %s\n", wl.name, problem)
				}
				code = 1
			}
			for _, m := range res.metrics {
				key := wl.name + "/" + m.name
				values[key] = append(values[key], m.value)
			}
			fmt.Fprintf(stderr, "run %d/%d %s done\n", i+1, n, wl.name)
		}
	}
	fmt.Fprintf(stdout, "%-16s %-22s %8s %6s  %s\n", "workload", "metric", "spread", "", "values")
	for _, wl := range selected {
		for _, m := range def.EndToEnd {
			vs := values[wl.name+"/"+m.Name]
			spread := (slices.Max(vs) - slices.Min(vs)) / medianFloat(vs)
			verdict := "PASS"
			if spread > m.Bound {
				verdict = "FAIL"
				code = 1
			}
			strs := make([]string, len(vs))
			for i, v := range vs {
				strs[i] = strconv.FormatFloat(v, 'g', 6, 64)
			}
			fmt.Fprintf(stdout, "%-16s %-22s %7.2f%% %6s  %s (bound %.0f%%)\n",
				wl.name, m.Name, 100*spread, verdict, strings.Join(strs, " "), 100*m.Bound)
		}
	}
	return code
}
