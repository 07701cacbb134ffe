package core

import (
	"encoding/json"
	"fmt"
)

// The learned user profile is the one piece of speculation state worth
// persisting: "Database Learning" (PAPERS.md) argues the system should get
// smarter every run, and the paper's survival/retention estimates are
// exactly per-user knowledge that outlives a process. ExportProfile and
// ImportProfile serialize the Learner's counters for the durable backend's
// commit metadata. Everything else in core (manipulations, shared builds,
// the ledger) is deliberately volatile and rebuilt from scratch.

// profileVersion guards the serialized layout; bump on any field change.
const profileVersion = 1

type profileCounter struct {
	Hits  float64 `json:"hits"`
	Total float64 `json:"total"`
}

type profileDump struct {
	Version           int                       `json:"version"`
	SelSurvival       profileCounter            `json:"sel_survival"`
	JoinSurvival      profileCounter            `json:"join_survival"`
	SelSurvivalByCol  map[string]profileCounter `json:"sel_survival_by_col,omitempty"`
	JoinSurvivalByKey map[string]profileCounter `json:"join_survival_by_key,omitempty"`
	SelRetention      profileCounter            `json:"sel_retention"`
	JoinRetention     profileCounter            `json:"join_retention"`
	ThinkN            float64                   `json:"think_n"`
	ThinkLogMean      float64                   `json:"think_log_mean"`
	ThinkLogM2        float64                   `json:"think_log_m2"`
}

// ExportProfile serializes the learner's estimators. The encoding is JSON
// with sorted map keys (encoding/json guarantees the ordering), and float64
// values round-trip exactly, so export → import → export is byte-stable.
func (l *Learner) ExportProfile() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d := profileDump{
		Version:      profileVersion,
		SelSurvival:  profileCounter{l.selSurvival.hits, l.selSurvival.total},
		JoinSurvival: profileCounter{l.joinSurvival.hits, l.joinSurvival.total},
		SelRetention: profileCounter{l.selRetention.hits, l.selRetention.total},
		JoinRetention: profileCounter{
			l.joinRetention.hits, l.joinRetention.total,
		},
		ThinkN:       l.thinkN,
		ThinkLogMean: l.thinkLogMean,
		ThinkLogM2:   l.thinkLogM2,
	}
	if len(l.selSurvivalByCol) > 0 {
		d.SelSurvivalByCol = make(map[string]profileCounter, len(l.selSurvivalByCol))
		for k, c := range l.selSurvivalByCol {
			d.SelSurvivalByCol[k] = profileCounter{c.hits, c.total}
		}
	}
	if len(l.joinSurvivalByKey) > 0 {
		d.JoinSurvivalByKey = make(map[string]profileCounter, len(l.joinSurvivalByKey))
		for k, c := range l.joinSurvivalByKey {
			d.JoinSurvivalByKey[k] = profileCounter{c.hits, c.total}
		}
	}
	return json.Marshal(d)
}

// ImportProfile restores estimators exported by ExportProfile, replacing the
// learner's current state. The tuning (LearnerConfig) is not part of the
// profile: configuration belongs to the process, observations to the user.
func (l *Learner) ImportProfile(b []byte) error {
	var d profileDump
	if err := json.Unmarshal(b, &d); err != nil {
		return fmt.Errorf("core: decode profile: %w", err)
	}
	if d.Version != profileVersion {
		return fmt.Errorf("core: profile version %d, want %d", d.Version, profileVersion)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.selSurvival = survivalCounter{d.SelSurvival.Hits, d.SelSurvival.Total}
	l.joinSurvival = survivalCounter{d.JoinSurvival.Hits, d.JoinSurvival.Total}
	l.selRetention = survivalCounter{d.SelRetention.Hits, d.SelRetention.Total}
	l.joinRetention = survivalCounter{d.JoinRetention.Hits, d.JoinRetention.Total}
	l.thinkN = d.ThinkN
	l.thinkLogMean = d.ThinkLogMean
	l.thinkLogM2 = d.ThinkLogM2
	l.selSurvivalByCol = make(map[string]*survivalCounter, len(d.SelSurvivalByCol))
	for k, c := range d.SelSurvivalByCol {
		l.selSurvivalByCol[k] = &survivalCounter{c.Hits, c.Total}
	}
	l.joinSurvivalByKey = make(map[string]*survivalCounter, len(d.JoinSurvivalByKey))
	for k, c := range d.JoinSurvivalByKey {
		l.joinSurvivalByKey[k] = &survivalCounter{c.Hits, c.Total}
	}
	return nil
}
