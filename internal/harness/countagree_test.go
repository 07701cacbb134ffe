package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"specdb/internal/core"
	"specdb/internal/engine"
)

// statCounters maps each registry counter that counts a Stats event to the
// Stats fields whose sum over the sessions of one engine it must equal: the
// counters a speculator mirrors through count (spec.shed counts both kinds of
// shed job), and the session breaker's trips and resumes.
var statCounters = map[string][]string{
	"spec.issued":                 {"Issued"},
	"spec.completed":              {"Completed"},
	"spec.hits":                   {"Hits"},
	"spec.misses":                 {"Misses"},
	"spec.waste_ns":               {"Waste"},
	"spec.failed":                 {"Failed"},
	"spec.aborted":                {"Aborted"},
	"spec.abandoned":              {"Abandoned"},
	"spec.deferred":               {"Deferred"},
	"spec.continued_at_go":        {"ContinuedAtGo"},
	"spec.suspended":              {"Suspended"},
	"spec.budget_deferred":        {"BudgetDeferred"},
	"spec.shed":                   {"Shed", "ShedRetained"},
	"spec.deadline_aborts":        {"DeadlineAborts"},
	"spec.governor_deferred":      {"GovernorDeferred"},
	"spec.predicted_issued":       {"PredictedIssued"},
	"spec.predicted_completed":    {"PredictedCompleted"},
	"spec.predicted_canceled":     {"PredictedCanceled"},
	"spec.predicted_gos":          {"PredictedGos"},
	"spec.predict_equiv_failures": {"PredictEquivFailures"},
	"spec.instant_saved_ns":       {"InstantSaved"},
	"breaker.opened":              {"BreakerTrips"},
	"breaker.closed":              {"BreakerResumes"},
}

// statsFields reads a Stats printed with %+v into its fields, a duration as
// nanoseconds.
func statsFields(tb testing.TB, printed string) map[string]int64 {
	tb.Helper()
	out := map[string]int64{}
	for _, f := range strings.Fields(strings.Trim(printed, "{}")) {
		name, val, ok := strings.Cut(f, ":")
		if !ok {
			tb.Fatalf("stats field %q has no value", f)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			d, derr := time.ParseDuration(val)
			if derr != nil {
				tb.Fatalf("stats field %s: %v", f, err)
			}
			n = int64(d)
		}
		out[name] = n
	}
	return out
}

// countDisagreements names each counter of statCounters whose value in
// counters differs from the sum of its fields over sessions, every session a
// Stats read by statsFields. A counter no session ever created reads 0.
func countDisagreements(counters map[string]int64, sessions []map[string]int64) []string {
	var out []string
	for name, fields := range statCounters {
		var sum int64
		for _, s := range sessions {
			for _, f := range fields {
				sum += s[f]
			}
		}
		if counters[name] != sum {
			out = append(out, fmt.Sprintf("%s %d, the sessions' %s sum to %d", name, counters[name], strings.Join(fields, "+"), sum))
		}
	}
	sort.Strings(out)
	return out
}

// dumpDisagreements is countDisagreements over a decision dump: its "stats"
// lines are the sessions, its "counter" lines the registry.
func dumpDisagreements(tb testing.TB, dump string) []string {
	tb.Helper()
	counters := map[string]int64{}
	var sessions []map[string]int64
	for _, line := range strings.Split(dump, "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 3 && f[0] == "counter":
			n, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				tb.Fatalf("%q: %v", line, err)
			}
			counters[f[1]] = n
		case len(f) > 2 && f[0] == "stats":
			sessions = append(sessions, statsFields(tb, strings.Join(f[2:], " ")))
		}
	}
	if len(sessions) == 0 {
		tb.Fatal("the dump has no stats line")
	}
	return countDisagreements(counters, sessions)
}

// engineDisagreements is countDisagreements over eng's registry and the final
// Stats of every session that ran on it.
func engineDisagreements(tb testing.TB, eng *engine.Engine, per []core.Stats) []string {
	tb.Helper()
	sessions := make([]map[string]int64, len(per))
	for i, st := range per {
		sessions[i] = statsFields(tb, fmt.Sprintf("%+v", st))
	}
	return countDisagreements(eng.Metrics().Snapshot().Counters, sessions)
}

// TestGoldenCountersMatchSessionStats holds every decision golden to one
// count per event (DESIGN.md §8): each registry counter that counts a Stats
// event equals the sum of that field over the golden's sessions. The same
// check runs on each dump as TestDecisionTrace makes it, and on the engines
// of TestMultiUserContentionGolden, so that a stray increment fails even
// after the goldens are regenerated.
func TestGoldenCountersMatchSessionStats(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.decisions.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("found %d decision goldens, want 5: %v", len(paths), paths)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dumpDisagreements(t, string(data)) {
			t.Errorf("%s: %s", filepath.Base(p), d)
		}
	}
}
