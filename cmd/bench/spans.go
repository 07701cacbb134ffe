package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"specdb/internal/buffer"
	"specdb/internal/core"
	"specdb/internal/sim"
)

// counters are the engine-side counts read at the same boundaries as a span's
// clock: buffer-pool traffic and engine statements as deltas over the span,
// the executor's work for the GO the span answered.
type counters struct {
	pool  buffer.Stats
	stmts int64
	work  sim.Work
}

// span is one timed call the driver made into a layer. Spans of one op share
// the trace id workload/pass/trace/op; parent is an index into the same
// recorder (-1 for a pass).
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int32
	pass       int32
	trace      int32 // -1 above the trace level
	op         int32 // -1 above the op level
	counters   counters
	stats      *core.Stats // trace spans: the speculator's final counters
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory; a nil recorder records nothing, so the
// untraced run pays one nil check per boundary. One goroutine owns a
// recorder (concurrent passes give each worker its own).
type recorder struct {
	epoch  time.Time
	worker int
	spans  []span
	open   []int32 // stack of open span indexes
	pass   int32
	trace  int32
	op     int32
}

func newRecorder(epoch time.Time, worker int) *recorder {
	return &recorder{epoch: epoch, worker: worker, trace: -1, op: -1}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, pass: r.pass, trace: r.trace, op: r.op})
	r.open = append(r.open, i)
	r.spans[i].start = time.Since(r.epoch)
	return i
}

// end closes span i, which must be the innermost open one.
func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// at returns span i for attaching counters (nil-safe callers check r first).
func (r *recorder) at(i int32) *span { return &r.spans[i] }

// selfTimes returns, per span, its duration minus the time its direct
// children cover. Children of one parent never overlap (one goroutine records
// them in call order), so their durations add.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// durationsOf collects the durations of every span called name.
func durationsOf(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeChromeTrace writes the recorders' spans in Chrome trace-event JSON
// (load in chrome://tracing or Perfetto): one complete event per span, one
// thread per worker, the trace id, self time and counters in args.
func writeChromeTrace(path, workload string, recs []*recorder) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":"%s/%d/%d/%d","span":%d,"parent":%d,"self_us":%.3f`,
				s.name, r.worker, us(s.start), us(s.dur()), workload, s.pass, s.trace, s.op, i, s.parent, us(self[i]))
			c := s.counters
			if c.pool != (buffer.Stats{}) || c.stmts != 0 {
				fmt.Fprintf(w, `,"pool_fetches":%d,"pool_hits":%d,"pool_misses":%d,"pool_writes":%d,"engine_statements":%d`,
					c.pool.Fetches, c.pool.Hits, c.pool.Misses, c.pool.Writes, c.stmts)
			}
			if c.work != (sim.Work{}) {
				fmt.Fprintf(w, `,"work_tuples":%d,"work_page_reads":%d,"work_page_writes":%d`,
					c.work.Tuples, c.work.PageReads, c.work.PageWrites)
			}
			if st := s.stats; st != nil {
				fmt.Fprintf(w, `,"core_issued":%d,"core_completed":%d,"core_hits":%d,"core_misses":%d,"core_waste_s":%.6f,"core_predicted_gos":%d`,
					st.Issued, st.Completed, st.Hits, st.Misses, st.Waste.Seconds(), st.PredictedGos)
			}
			fmt.Fprint(w, "}}")
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
