package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"specdb/internal/sim"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter is not get-or-create: second lookup returned a new counter")
	}
	g := r.Gauge("ratio")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
	if r.Gauge("ratio") != g {
		t.Fatal("Gauge is not get-or-create")
	}
}

// TestNilMetricsDiscard: the write side of every metric accepts a nil
// receiver, which is what lets unattached components call it unguarded.
func TestNilMetricsDiscard(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	var g *Gauge
	g.Set(1.5)
	var h *Histogram
	h.Observe(7)
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Bounds are upper-inclusive: 1,10 -> bucket 0; 11,100 -> bucket 1;
	// 5000 -> overflow.
	want := []int64{2, 2, 0, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 1+10+11+100+5000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", []int64{1000, 10, 100})
	h.Observe(50)
	s := r.Snapshot().Histograms["d"]
	if len(s.Bounds) != 3 || s.Bounds[0] != 10 || s.Bounds[2] != 1000 {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Counts[1] != 1 {
		t.Fatalf("50 should land in (10,100] bucket: %v", s.Counts)
	}
	// Re-registering ignores new bounds and shares the histogram.
	if r.Histogram("d", []int64{7}) != h {
		t.Fatal("Histogram is not get-or-create")
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("z.ratio").Set(0.5)
	r.Histogram("h.ns", []int64{100}).Observe(40)

	text := r.Snapshot().Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("text dump has %d lines, want 4:\n%s", len(lines), text)
	}
	// Counters sorted first, then gauges, then histograms.
	if !strings.HasPrefix(lines[0], "a.count") || !strings.HasPrefix(lines[1], "b.count") ||
		!strings.HasPrefix(lines[2], "z.ratio") || !strings.HasPrefix(lines[3], "h.ns") {
		t.Fatalf("unexpected ordering:\n%s", text)
	}
	if !strings.Contains(lines[3], "count=1 mean=40") {
		t.Fatalf("histogram line: %s", lines[3])
	}

	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["b.count"] != 2 || back.Gauges["z.ratio"] != 0.5 {
		t.Fatalf("JSON round-trip lost values: %+v", back)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewRegistry().Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("stmt", sim.Time(10), 0, Attr{Key: "sql", Value: "SELECT 1"})
	child := tr.Start("manip.materialize", sim.Time(20), root.ID())
	child.Annotate("table", "spec_t1")
	child.End(sim.Time(30))
	root.End(sim.Time(40))
	root.End(sim.Time(99)) // double End is a no-op

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Commit order: child ended first.
	if spans[0].Name != "manip.materialize" || spans[1].Name != "stmt" {
		t.Fatalf("span order: %v, %v", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %d != root id %d", spans[0].Parent, spans[1].ID)
	}
	if d := spans[0].Duration(); d != sim.Duration(10) {
		t.Fatalf("child duration %v", d)
	}
	if spans[1].End != sim.Time(40) {
		t.Fatalf("double End moved the end: %v", spans[1].End)
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Value != "spec_t1" {
		t.Fatalf("attrs: %+v", spans[0].Attrs)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 1; i <= 5; i++ {
		tr.Start("s", sim.Time(i), 0).End(sim.Time(i))
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	// Oldest two evicted; remaining in commit order.
	for i, want := range []sim.Time{3, 4, 5} {
		if spans[i].Start != want {
			t.Fatalf("span %d starts at %v, want %v (spans: %+v)", i, spans[i].Start, want, spans)
		}
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}

func TestTracerDefaultCap(t *testing.T) {
	tr := NewTracer(0)
	if tr.cap != DefaultTracerCap {
		t.Fatalf("cap = %d, want %d", tr.cap, DefaultTracerCap)
	}
}
