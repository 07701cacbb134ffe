package specdb

import (
	"fmt"

	"specdb/internal/core"
	"specdb/internal/harness"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// Session recording: like the paper's modified SQUID interface, a Session
// records every edit with its timestamp, so real interactions can be saved
// and replayed later (Section 4.1's methodology).

func (s *Session) record(ev trace.Event) {
	ev.AtSeconds = s.clock.Now().Seconds()
	s.recorded = append(s.recorded, ev)
}

// TraceJSON returns the session's recorded interaction as a JSON trace,
// replayable with ReplayTrace or cmd/replay.
func (s *Session) TraceJSON(user string) ([]byte, error) {
	s.mu.Lock()
	events := append([]trace.Event(nil), s.recorded...)
	s.mu.Unlock()
	tr := &trace.Trace{User: user, Events: events}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr.Encode()
}

// ReplaySummary reports a paired trace replay.
type ReplaySummary struct {
	Queries int
	// NormalSeconds and SpeculativeSeconds are total simulated execution
	// times across the trace's final queries.
	NormalSeconds      float64
	SpeculativeSeconds float64
	// ImprovementPct is the paper's metric: 1 − spec/normal, in percent.
	ImprovementPct float64
	// PerQuery holds (normal, speculative) seconds per final query.
	PerQuery [][2]float64
	// Stats are the speculative replay's counters.
	Stats Stats
}

// ReplayTrace replays a recorded trace against this database, once under
// normal processing and once speculatively, and reports the comparison.
// The buffer pool is cold-started before each replay, per the paper's setup.
func (db *DB) ReplayTrace(data []byte) (*ReplaySummary, error) {
	tr, err := trace.Decode(data)
	if err != nil {
		return nil, err
	}
	normal, err := harness.RunTraceNormal(db.eng, 0, tr)
	if err != nil {
		return nil, fmt.Errorf("specdb: normal replay: %w", err)
	}
	spec, err := harness.RunTraceSpeculative(db.eng, 0, tr, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("specdb: speculative replay: %w", err)
	}
	sum := &ReplaySummary{Queries: len(normal), Stats: spec.Stats}
	for i := range normal {
		n, s := normal[i].Seconds, spec.Timings[i].Seconds
		sum.NormalSeconds += n
		sum.SpeculativeSeconds += s
		sum.PerQuery = append(sum.PerQuery, [2]float64{n, s})
	}
	if sum.NormalSeconds > 0 {
		sum.ImprovementPct = (1 - sum.SpeculativeSeconds/sum.NormalSeconds) * 100
	}
	return sum, nil
}

// GenerateTraces produces a synthetic user-trace corpus fitted to the
// paper's Section 5 statistics, as JSON documents (one per user). Useful for
// driving ReplayTrace without collecting real interactions.
func GenerateTraces(users int, seed uint64) ([][]byte, error) {
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), users, seed)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(traces))
	for i, tr := range traces {
		data, err := tr.Encode()
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}
