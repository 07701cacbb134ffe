package exec

import (
	"errors"
	"fmt"
	"testing"

	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// A join on several edges used to be a HashJoin on the first under a ColFilter
// on the others; now the HashJoin tests the others itself, on the pair, before
// it assembles a row. The old composition still builds from the same parts, so
// it is the reference here: same rows in the same order (a materialized view
// stores rows as emitted) and the same meter — tuples and spill pages.

// residualCase is a build side and a probe side sharing column 0 as the
// hashed edge; the remaining columns pair up as residual edges.
type residualCase struct {
	name         string
	kinds        []tuple.Kind // of columns 1.. on both sides
	build, probe int          // rows
	workMem      int64
}

// residualValue is column c of row i: few distinct values per column, so that
// candidates pass some residual edges and fail others, in every kind.
func residualValue(kind tuple.Kind, c, i int) tuple.Value {
	n := int64(i / (c + 1) % 3)
	switch kind {
	case tuple.KindInt:
		return tuple.NewInt(n - 1)
	case tuple.KindDate:
		return tuple.NewDate(9000 + n)
	case tuple.KindFloat:
		return tuple.NewFloat(float64(n) / 4)
	default:
		return tuple.NewString(fmt.Sprintf("v%d", n))
	}
}

func (c residualCase) side(prefix string, rows, keys int) (*tuple.Schema, []tuple.Row) {
	cols := []tuple.Column{{Name: prefix + "k", Kind: tuple.KindInt}}
	for i, k := range c.kinds {
		cols = append(cols, tuple.Column{Name: fmt.Sprintf("%s%d", prefix, i), Kind: k})
	}
	out := make([]tuple.Row, rows)
	for i := range out {
		out[i] = tuple.Row{tuple.NewInt(int64(i % keys))} // duplicates on the hashed edge
		for ci, k := range c.kinds {
			out[i] = append(out[i], residualValue(k, ci, i))
		}
	}
	return tuple.NewSchema(cols...), out
}

func TestHashJoinResidualMatchesColFilter(t *testing.T) {
	all := []tuple.Kind{tuple.KindInt, tuple.KindDate, tuple.KindFloat, tuple.KindString}
	cases := []residualCase{
		{name: "int", kinds: all[:1], build: 120, probe: 300},
		{name: "date", kinds: all[1:2], build: 120, probe: 300},
		{name: "float", kinds: all[2:3], build: 120, probe: 300},
		{name: "string", kinds: all[3:], build: 120, probe: 300},
		{name: "all four", kinds: all, build: 400, probe: 900},
		{name: "empty build", kinds: all[:1], build: 0, probe: 50},
		{name: "empty probe", kinds: all[:1], build: 50, probe: 0},
		{name: "spilling build", kinds: all, build: 400, probe: 900, workMem: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bs, build := c.side("b", c.build, 7)
			ps, probe := c.side("p", c.probe, 9) // keys 7 and 8 match nothing
			var edges []JoinEdge
			for i := range c.kinds {
				edges = append(edges, JoinEdge{LeftCol: fmt.Sprintf("b%d", i), RightCol: fmt.Sprintf("p%d", i)})
			}
			run := func(fused bool) ([]tuple.Row, sim.Work) {
				meter := sim.NewMeter()
				ctx := &Context{Meter: meter, WorkMemBytes: c.workMem}
				left, right := NewValuesScan(ctx, bs, build), NewValuesScan(ctx, ps, probe)
				var it Iterator
				if fused {
					hj, err := NewHashJoin(ctx, left, right, "bk", "pk", edges...)
					if err != nil {
						t.Fatal(err)
					}
					it = hj
				} else {
					hj, err := NewHashJoin(ctx, left, right, "bk", "pk")
					if err != nil {
						t.Fatal(err)
					}
					preds := make([]ColPred, len(edges))
					for i, e := range edges {
						if preds[i], err = CompileColPred(hj.Schema(), e.LeftCol, tuple.CmpEQ, e.RightCol); err != nil {
							t.Fatal(err)
						}
					}
					it = NewColFilter(ctx, hj, preds)
				}
				rows, err := Collect(it)
				if err != nil {
					t.Fatal(err)
				}
				return rows, meter.Snapshot()
			}
			got, gotWork := run(true)
			want, wantWork := run(false)
			if gotWork != wantWork {
				t.Errorf("meter %+v, HashJoin→ColFilter charged %+v", gotWork, wantWork)
			}
			if len(got) != len(want) {
				t.Fatalf("%d rows, HashJoin→ColFilter gave %d", len(got), len(want))
			}
			for i := range want {
				if got[i].String() != want[i].String() {
					t.Fatalf("row %d is %v, HashJoin→ColFilter gave %v", i, got[i], want[i])
				}
			}
			if c.build > 0 && c.probe > 0 {
				// The case must exercise both outcomes of the residual test.
				if candidates := gotWork.Tuples - int64(c.build+c.build+c.probe+c.probe); len(want) == 0 || int64(2*len(want)) >= candidates {
					t.Fatalf("%d rows of %d candidate pairs: the residual edges reject nothing or everything", len(want), candidates/2)
				}
			}
			if c.workMem > 0 && gotWork.PageWrites == 0 {
				t.Fatal("the build side did not spill")
			}
		})
	}
	bs, _ := residualCase{kinds: all[:1]}.side("b", 0, 1)
	ctx := NewContext(sim.NewMeter())
	for _, e := range []JoinEdge{{"nope", "b0"}, {"b0", "nope"}} {
		if _, err := NewHashJoin(ctx, NewValuesScan(ctx, bs, nil), NewValuesScan(ctx, bs, nil), "bk", "bk", e); err == nil {
			t.Errorf("residual edge %v over %v compiled", e, bs)
		}
	}
}

// failAfter passes n rows of its child through and then fails.
type failAfter struct {
	Iterator
	n int
}

var errMidStream = errors.New("exec test: mid-stream failure")

func (f *failAfter) Next() (tuple.Row, bool, error) {
	if f.n == 0 {
		return nil, false, errMidStream
	}
	f.n--
	return f.Iterator.Next()
}

// TestFailedStreamLeavesAnExactMeter: tuples are counted on the context and
// handed to the meter at Close. A stream that fails part-way is closed by
// Drain like any other, so the meter holds exactly what the operators did
// before the failure, and a second measure window on the same meter — the
// engine's degraded retry after a failed plan — starts from a true snapshot.
func TestFailedStreamLeavesAnExactMeter(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 100)
	pred, err := CompilePred(tb.Schema, "age", tuple.CmpGE, tuple.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	before := e.meter.Snapshot()
	failing := NewFilter(e.ctx, &failAfter{Iterator: NewSeqScan(e.ctx, tb, ""), n: 40}, []Pred{pred})
	if _, err := Collect(failing); !errors.Is(err, errMidStream) {
		t.Fatalf("Collect: %v, want the mid-stream failure", err)
	}
	// 40 rows through the scan and through the filter.
	if got := e.meter.Since(before).Tuples; got != 80 {
		t.Fatalf("failed stream left %d tuples on the meter, want 80", got)
	}
	// The retry: a fresh context on the same meter, as planAndRun makes one.
	window := e.meter.Snapshot()
	ctx := NewContext(e.meter)
	if n, err := Count(NewFilter(ctx, NewSeqScan(ctx, tb, ""), []Pred{pred})); err != nil || n != 100 {
		t.Fatalf("retry: %d rows, %v", n, err)
	}
	if got := e.meter.Since(window).Tuples; got != 200 {
		t.Fatalf("the retry's window reads %d tuples, want 200", got)
	}
	// An Open that fails is closed too.
	window = e.meter.Snapshot()
	probe := &failAfter{Iterator: NewSeqScan(e.ctx, tb, ""), n: 0}
	hj, err := NewHashJoin(e.ctx, NewSeqScan(e.ctx, tb, "l"), probe, "l.age", "age")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Count(hj); !errors.Is(err, errMidStream) {
		t.Fatalf("Count: %v, want the mid-stream failure", err)
	}
	// 100 build rows through the scan and into the table; the probe side
	// failed on its first row.
	if got := e.meter.Since(window).Tuples; got != 200 {
		t.Fatalf("failed probe left %d tuples on the meter, want 200", got)
	}
}

// TestProfilerAttributesCountedTuplesToTheirNode: an instrumented operator's
// tuples are counted on the context like everyone's, and each wrapper sees
// exactly those counted inside its own Open and Next calls — a parent's are not
// charged to the child that runs next, a child's not to its parent's sibling.
func TestProfilerAttributesCountedTuplesToTheirNode(t *testing.T) {
	e := newEnv(t)
	c := residualCase{kinds: []tuple.Kind{tuple.KindInt}}
	bs, build := c.side("b", 60, 7)
	ps, probe := c.side("p", 90, 9)
	prof := NewProfiler()
	prof.Attach(e.ctx)
	left := e.ctx.Instrument("build", NewValuesScan(e.ctx, bs, build))
	right := e.ctx.Instrument("probe", NewValuesScan(e.ctx, ps, probe))
	hj, err := NewHashJoin(e.ctx, left, right, "bk", "pk", JoinEdge{LeftCol: "b0", RightCol: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	before := e.meter.Snapshot()
	rows, err := Count(e.ctx.Instrument("join", hj))
	if err != nil {
		t.Fatal(err)
	}
	total := e.meter.Since(before).Tuples
	if got := prof.Stats("build").Work.Tuples; got != 60 {
		t.Errorf("build scan attributed %d tuples, want its 60 rows", got)
	}
	if got := prof.Stats("probe").Work.Tuples; got != 90 {
		t.Errorf("probe scan attributed %d tuples, want its 90 rows", got)
	}
	join := prof.Stats("join")
	if join.Work.Tuples != total || join.Rows != rows {
		t.Errorf("join attributed %d tuples and %d rows; the meter moved %d, Count saw %d", join.Work.Tuples, join.Rows, total, rows)
	}
	// Inclusive: both scans, 60 into the table, 90 probes, two per candidate.
	if candidates := (total - 60 - 90 - 60 - 90) / 2; candidates <= rows || rows == 0 {
		t.Errorf("%d candidates for %d rows: the residual edge rejected nothing", candidates, rows)
	}
}
