package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPerOpMinTakesTheFastestPassPerOp(t *testing.T) {
	passes := [][]time.Duration{
		{5, 9, 3},
		{4, 10, 7},
		{6, 8, 3},
	}
	got := perOpMin(passes)
	want := []time.Duration{4, 8, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if passes[0][0] != 5 {
		t.Fatal("perOpMin modified its input")
	}
	if perOpMin(nil) != nil {
		t.Fatal("no passes must give no ops")
	}
}

func TestTail10IsTheMeanOfTheSlowestTenth(t *testing.T) {
	// 124 GOs → the slowest 12; 491 edits → the slowest 49.
	for _, tc := range []struct{ n, tail int }{{124, 12}, {491, 49}, {5, 1}} {
		xs := make([]time.Duration, tc.n)
		for i := range xs {
			xs[(i*7)%tc.n] = time.Duration(i+1) * time.Millisecond // 1..n ms, shuffled
		}
		// Mean of the top `tail` values of 1..n.
		want := float64(tc.n) - float64(tc.tail-1)/2
		if got := tail10Ms(xs); !near(got, want) {
			t.Errorf("n=%d: tail10 %v, want %v", tc.n, got, want)
		}
	}
	if tail10Ms(nil) != 0 {
		t.Error("empty tail must be 0")
	}
}

func TestThroughputIsCountOverTheSumOfPerOpMinima(t *testing.T) {
	isGo := []bool{false, true, false, true}
	passes := [][]time.Duration{
		{100 * time.Millisecond, 300 * time.Millisecond, 100 * time.Millisecond, 700 * time.Millisecond},
		{200 * time.Millisecond, 200 * time.Millisecond, 50 * time.Millisecond, 900 * time.Millisecond},
	}
	opMin := perOpMin(passes) // 100 200 50 700 → 1.05 s for 2 GOs
	gos := pick(opMin, isGo, true)
	if got, want := opsPerSecond(len(gos), opMin), 2/1.05; !near(got, want) {
		t.Fatalf("gos_per_s %v, want %v", got, want)
	}
	if got := meanMs(gos); !near(got, 450) {
		t.Fatalf("GO mean %v ms, want 450", got)
	}
	if got := meanMs(pick(opMin, isGo, false)); !near(got, 75) {
		t.Fatalf("edit mean %v ms, want 75", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(100-i) * time.Millisecond
	}
	for _, tc := range []struct{ p, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}} {
		if got := percentileMs(xs, tc.p); !near(got, tc.want) {
			t.Errorf("p%.0f: %v, want %v", 100*tc.p, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsNestedAndBackToBackChildren(t *testing.T) {
	// pass [0,100] > op [10,90] > OnEvent [10,40], Complete [40,70] (back to
	// back) and OnGo [72,88] > RunQuery [75,85] (nested).
	spans := []span{
		{name: "pass", start: 0, end: 100, parent: -1},
		{name: "op", start: 10, end: 90, parent: 0},
		{name: "core.OnEvent", start: 10, end: 40, parent: 1},
		{name: "core.Complete", start: 40, end: 70, parent: 1},
		{name: "core.OnGo", start: 72, end: 88, parent: 1},
		{name: "engine.RunQuery", start: 75, end: 85, parent: 4},
	}
	want := []time.Duration{20, 4, 30, 30, 6, 10}
	got := selfTimes(spans)
	var total time.Duration
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].name, got[i], want[i])
		}
		total += got[i]
	}
	if total != spans[0].dur() {
		t.Errorf("self times sum to %v, the root lasts %v", total, spans[0].dur())
	}
}

func TestRecorderNestsSpansAndNilRecordsNothing(t *testing.T) {
	var off *recorder
	off.end(off.begin("x")) // must not panic

	rec := newRecorder(time.Now(), 0)
	rec.pass = 3
	a := rec.begin("pass")
	rec.trace, rec.op = 1, 5
	b := rec.begin("op.go")
	c := rec.begin("core.OnGo")
	rec.end(c)
	d := rec.begin("core.Complete")
	rec.end(d)
	rec.end(b)
	rec.end(a)
	if len(rec.open) != 0 {
		t.Fatalf("%d spans left open", len(rec.open))
	}
	parents := []int32{-1, a, b, b}
	for i, s := range rec.spans {
		if s.parent != parents[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.name, s.parent, parents[i])
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if s := rec.spans[c]; s.pass != 3 || s.trace != 1 || s.op != 5 {
		t.Errorf("trace id %d/%d/%d, want 3/1/5", s.pass, s.trace, s.op)
	}
}
