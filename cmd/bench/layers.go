package main

import (
	"runtime"
	"slices"
	"time"
)

// layers reports the in-run per-layer metrics of a traced run: timings from
// the spans of the traced passes, counts from the first measured pass, rates
// from the untraced passes that alternate with the traced ones. Every name is
// emitted on every workload, zero where the workload does not reach the layer.
func (r *run) layers(res *result, basePages int) {
	gos := r.corpus.gos
	isGo := r.corpus.isGo
	k := len(r.single.data)
	first := r.single.data[0][0]

	// replay: the op-level view, pooled over the untraced passes.
	var goWalls, editWalls []time.Duration
	var tuples int64
	for _, d := range r.single.data {
		goWalls = append(goWalls, pick(d[0].wall, isGo, true)...)
		editWalls = append(editWalls, pick(d[0].wall, isGo, false)...)
		tuples += d[0].tuples
	}
	res.add("replay.go_wall_ms_p50", "ms", percentileMs(goWalls, 0.50), len(goWalls))
	res.add("replay.go_wall_ms_p90", "ms", percentileMs(goWalls, 0.90), len(goWalls))
	res.add("replay.go_wall_ms_p99", "ms", percentileMs(goWalls, 0.99), len(goWalls))
	res.add("replay.edit_wall_ms_p99", "ms", percentileMs(editWalls, 0.99), len(editWalls))
	var simTotal float64
	for _, s := range first.simS {
		simTotal += s
	}
	res.add("replay.sim_go_s_mean", "s", simTotal/float64(gos), gos)
	res.add("replay.failed_op_share", "ratio", float64(r.failed)/float64(r.attempted), r.attempted)
	res.add("replay.passes", "count", float64(k), 1)

	opMin := perOpMin(r.single.walls())
	tracedMin := perOpMin(r.singleTraced.walls())
	res.add("trace.overhead_pct", "%", 100*(div(sum(tracedMin).Seconds(), sum(opMin).Seconds())-1), len(opMin)*k)

	one := opsPerSecond(gos, opMin)
	res.add("concurrent.gos_per_s_1", "1/s", one, len(opMin)*k)
	many, scaleup := 0.0, 0.0
	if r.wl.concurrent {
		many = div(float64(r.p.sessions*gos), r.multi.bestWall().Seconds())
		scaleup = div(many, one)
	}
	res.add("concurrent.gos_per_s_w", "1/s", many, len(r.multi.costs))
	res.add("concurrent.scaleup", "ratio", scaleup, len(r.multi.costs))
	res.add("concurrent.sessions", "count", float64(r.p.sessions), 1)
	res.add("go.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)), 1)

	// Spans of the traced passes, every client.
	var spans []span
	for _, rec := range r.recs {
		spans = append(spans, rec.spans...)
	}
	spanMean := func(name, metric string) {
		ds := durationsOf(spans, name)
		res.add(metric, "ms", meanMs(ds), len(ds))
	}
	var planDup time.Duration
	peak := 0
	tracedPasses := 0
	for _, ps := range []*passes{&r.singleTraced, &r.multiTraced} {
		for _, clients := range ps.data {
			tracedPasses++
			for _, d := range clients {
				planDup += d.planDup
				peak = max(peak, d.peak)
			}
		}
	}
	goSpans := durationsOf(spans, "op.go")
	res.add("plan.optimize_share_of_go", "ratio", div(planDup.Seconds(), (sum(goSpans)-planDup).Seconds()), len(goSpans))
	res.add("exec.tuples_per_s", "1/s", div(float64(tuples), sum(goWalls).Seconds()), len(goWalls))

	var fetches, hits, writes, stmts, mallocs, gcCycles, allGos float64
	var gcPause time.Duration
	for _, ps := range []*passes{&r.single, &r.multi} {
		for i, c := range ps.costs {
			fetches += float64(c.pool.Fetches)
			hits += float64(c.pool.Hits)
			writes += float64(c.pool.Writes)
			stmts += float64(c.stmts)
			mallocs += float64(c.mem.mallocs)
			gcCycles += float64(c.mem.gcCycles)
			gcPause += c.mem.gcPause
			allGos += float64(gos * len(ps.data[i]))
		}
	}
	res.add("buffer.hit_ratio", "ratio", div(hits, fetches), int(fetches))
	res.add("buffer.fetches_per_go", "count", fetches/allGos, int(allGos))
	res.add("buffer.writes_per_go", "count", writes/allGos, int(allGos))
	spanMean("engine.RunQuery", "engine.runquery_ms_mean")
	cold := durationsOf(spans, "engine.ColdStart")
	res.add("engine.cold_start_us", "us", meanMs(cold)*1000, len(cold))
	res.add("engine.pages_peak_ratio", "ratio", div(float64(peak), float64(basePages)), tracedPasses)
	res.add("engine.statements_per_go", "count", stmts/allGos, int(allGos))

	onEvent := durationsOf(spans, "core.OnEvent")
	res.add("core.on_event_ms_mean", "ms", meanMs(onEvent), len(onEvent))
	res.add("core.on_event_ms_p99", "ms", percentileMs(onEvent, 0.99), len(onEvent))
	spanMean("core.OnGo", "core.on_go_ms_mean")
	spanMean("core.Complete", "core.complete_ms_mean")
	spanMean("core.Shutdown", "core.shutdown_ms_mean")
	slow := 0
	for _, d := range durationsOf(spans, "op.edit") {
		if d > 100*time.Millisecond {
			slow++
		}
	}
	res.add("core.edits_over_100ms", "count", div(float64(slow), float64(tracedPasses)), tracedPasses)

	st := first.stats
	ratio := func(a, b int) float64 { return div(float64(a), float64(b)) }
	res.add("core.issued", "count", float64(st.Issued), 1)
	res.add("core.completed", "count", float64(st.Completed), 1)
	res.add("core.canceled", "count", float64(st.CanceledInvalidated+st.CanceledAtGo+st.CanceledOnClose), 1)
	res.add("core.hits", "count", float64(st.Hits), 1)
	res.add("core.hit_rate", "ratio", ratio(st.Hits, st.Hits+st.Misses), gos)
	res.add("core.useful_build_ratio", "ratio", ratio(st.Issued-first.wasted, st.Issued), st.Issued)
	res.add("core.waste_sim_s", "s", st.Waste.Seconds(), 1)
	res.add("core.predicted_issued", "count", float64(st.PredictedIssued), 1)
	res.add("core.predicted_go_rate", "ratio", ratio(st.PredictedGos, gos), gos)
	res.add("core.answer_cache_hits", "count", float64(st.AnswerCacheHits), 1)
	res.add("core.predict_equiv_failures", "count", float64(st.PredictEquivFailures), 1)

	res.add("go.gc_cycles_per_go", "count", gcCycles/allGos, int(allGos))
	res.add("go.gc_pause_ms_per_go", "ms", ms(gcPause)/allGos, int(allGos))
	res.add("go.mallocs_k_per_go", "count", mallocs/1e3/allGos, int(allGos))
	res.add("env.probe_ms_min", "ms", slices.Min(r.probeMs), len(r.probeMs))
	res.add("env.probe_ms_med", "ms", medianFloat(r.probeMs), len(r.probeMs))
}

// div is a/b, and 0 where b is 0: a layer the workload never reached.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
