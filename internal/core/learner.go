// Package core implements the speculation subsystem of Figure 3 of the
// paper: the Manipulation Space (Section 3.2/3.5), the Cost Model built on
// Theorem 3.1 (Section 3.3), the Learner (Section 3.4), and the Speculator
// (Section 3.5) that monitors the visual interface's partial query, issues
// asynchronous manipulations during user think-time, cancels them on
// invalidation, garbage-collects stale materializations, and rewrites final
// queries using completed materializations.
package core

import (
	"math"
	"sync"

	"specdb/internal/qgraph"
)

// survivalCounter is a Laplace-smoothed, exponentially decayed frequency
// estimate of a binary outcome.
type survivalCounter struct {
	hits  float64 // outcome true
	total float64
}

func (c *survivalCounter) observe(outcome bool, decay float64) {
	c.hits *= decay
	c.total *= decay
	c.total++
	if outcome {
		c.hits++
	}
}

// estimate returns (hits + prior·strength) / (total + strength).
func (c *survivalCounter) estimate(prior, strength float64) float64 {
	return (c.hits + prior*strength) / (c.total + strength)
}

// LearnerConfig tunes the counting estimators.
type LearnerConfig struct {
	// Decay is the per-observation recency decay (<1 forgets old behaviour).
	Decay float64
	// PriorStrength is the pseudo-count weight of the priors.
	PriorStrength float64
	// SelectionSurvivalPrior and JoinSurvivalPrior seed f⊆ before any
	// observations: parts placed on the canvas usually survive to GO, joins
	// more reliably than selections.
	SelectionSurvivalPrior float64
	JoinSurvivalPrior      float64
	// SelectionRetentionPrior and JoinRetentionPrior seed the inter-query
	// retention estimates (Section 5 measured ≈1−1/3 and ≈1−1/10).
	SelectionRetentionPrior float64
	JoinRetentionPrior      float64
}

// DefaultLearnerConfig returns the standard tuning.
func DefaultLearnerConfig() LearnerConfig {
	return LearnerConfig{
		Decay:                   0.98,
		PriorStrength:           4,
		SelectionSurvivalPrior:  0.80,
		JoinSurvivalPrior:       0.90,
		SelectionRetentionPrior: 0.67,
		JoinRetentionPrior:      0.90,
	}
}

// Learner builds the user profile: per-part survival probabilities (does a
// part of the partial query reach the final query?), inter-query retention
// (does a part of one final query persist into the next?), and a think-time
// model for completion risk. All estimators are counting-based and updated
// online, exactly as the Learner box of Figure 3 observes the interface.
//
// A Learner may be shared by every session of a SessionManager as one
// multi-user profile, so all observation and estimation goes through an
// internal RWMutex.
type Learner struct {
	cfg LearnerConfig

	mu sync.RWMutex

	// Survival, keyed per column/edge with a kind-level fallback.
	selSurvivalByCol  map[string]*survivalCounter // key: "rel.col"
	selSurvival       survivalCounter
	joinSurvivalByKey map[string]*survivalCounter // key: join.Key()
	joinSurvival      survivalCounter

	// Inter-query retention.
	selRetention  survivalCounter
	joinRetention survivalCounter

	// Think-time model: Welford statistics over log formulation durations
	// (the Section 5 distribution is heavily right-skewed; lognormal fits).
	thinkN       float64
	thinkLogMean float64
	thinkLogM2   float64
}

// NewLearner builds a learner with the given tuning.
func NewLearner(cfg LearnerConfig) *Learner {
	return &Learner{
		cfg:               cfg,
		selSurvivalByCol:  make(map[string]*survivalCounter),
		joinSurvivalByKey: make(map[string]*survivalCounter),
	}
}

func selColKey(s qgraph.Selection) string { return s.Rel + "." + s.Col }

// ObserveFormulation trains the survival estimators with one completed
// formulation: seen contains every atomic part that appeared on the canvas
// at any point since the previous GO, and final is the submitted query.
func (l *Learner) ObserveFormulation(seenSels []qgraph.Selection, seenJoins []qgraph.Join, final *qgraph.Graph) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range seenSels {
		survived := final.HasSelection(s)
		l.selSurvival.observe(survived, l.cfg.Decay)
		key := selColKey(s)
		c := l.selSurvivalByCol[key]
		if c == nil {
			c = &survivalCounter{}
			l.selSurvivalByCol[key] = c
		}
		c.observe(survived, l.cfg.Decay)
	}
	for _, j := range seenJoins {
		survived := final.HasJoin(j)
		l.joinSurvival.observe(survived, l.cfg.Decay)
		c := l.joinSurvivalByKey[j.Key()]
		if c == nil {
			c = &survivalCounter{}
			l.joinSurvivalByKey[j.Key()] = c
		}
		c.observe(survived, l.cfg.Decay)
	}
}

// ObserveTransition trains the retention estimators with two consecutive
// final queries.
func (l *Learner) ObserveTransition(prev, next *qgraph.Graph) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range prev.Selections() {
		l.selRetention.observe(next.HasSelection(s), l.cfg.Decay)
	}
	for _, j := range prev.Joins() {
		l.joinRetention.observe(next.HasJoin(j), l.cfg.Decay)
	}
}

// ObserveFormulationDuration trains the think-time model (seconds).
func (l *Learner) ObserveFormulationDuration(seconds float64) {
	if seconds <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	x := math.Log(seconds)
	l.thinkN++
	delta := x - l.thinkLogMean
	l.thinkLogMean += delta / l.thinkN
	l.thinkLogM2 += delta * (x - l.thinkLogMean)
}

// ProfileSnapshot is a point-in-time view of the Learner's global estimates,
// published to the metrics registry after each observed formulation so the
// evolving user profile is visible from outside.
type ProfileSnapshot struct {
	// SelectionSurvival and JoinSurvival are the kind-level f⊆ estimates.
	SelectionSurvival float64
	JoinSurvival      float64
	// SelectionRetention and JoinRetention are the inter-query persistence
	// estimates.
	SelectionRetention float64
	JoinRetention      float64
	// ThinkMedianSeconds is the fitted think-time lognormal's median e^mu.
	ThinkMedianSeconds float64
	// Formulations is the number of observed formulation durations.
	Formulations int64
}

// ProfileSnapshot reads the current global estimates.
func (l *Learner) ProfileSnapshot() ProfileSnapshot {
	l.mu.RLock()
	defer l.mu.RUnlock()
	mu, _ := l.thinkParamsLocked()
	return ProfileSnapshot{
		SelectionSurvival:  l.selSurvival.estimate(l.cfg.SelectionSurvivalPrior, l.cfg.PriorStrength),
		JoinSurvival:       l.joinSurvival.estimate(l.cfg.JoinSurvivalPrior, l.cfg.PriorStrength),
		SelectionRetention: l.selRetention.estimate(l.cfg.SelectionRetentionPrior, l.cfg.PriorStrength),
		JoinRetention:      l.joinRetention.estimate(l.cfg.JoinRetentionPrior, l.cfg.PriorStrength),
		ThinkMedianSeconds: math.Exp(mu),
		Formulations:       int64(l.thinkN),
	}
}

// SelectionSurvival estimates P(selection survives to the final query),
// blending the per-column estimate with the kind-level fallback.
func (l *Learner) SelectionSurvival(s qgraph.Selection) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.selectionSurvivalLocked(s)
}

func (l *Learner) selectionSurvivalLocked(s qgraph.Selection) float64 {
	global := l.selSurvival.estimate(l.cfg.SelectionSurvivalPrior, l.cfg.PriorStrength)
	if c, ok := l.selSurvivalByCol[selColKey(s)]; ok {
		return c.estimate(global, l.cfg.PriorStrength)
	}
	return global
}

// JoinSurvival estimates P(join edge survives to the final query).
func (l *Learner) JoinSurvival(j qgraph.Join) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.joinSurvivalLocked(j)
}

func (l *Learner) joinSurvivalLocked(j qgraph.Join) float64 {
	global := l.joinSurvival.estimate(l.cfg.JoinSurvivalPrior, l.cfg.PriorStrength)
	var buf [64]byte // the key's bytes: the lookup builds no string
	if c, ok := l.joinSurvivalByKey[string(j.AppendKey(buf[:0]))]; ok {
		return c.estimate(global, l.cfg.PriorStrength)
	}
	return global
}

// SubgraphSurvival estimates f⊆(q): the probability that sub-query q is
// contained in the final query, as the product of its parts' survival
// probabilities (parts are edited near-independently in the interface).
func (l *Learner) SubgraphSurvival(q *qgraph.Graph) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	p := 1.0
	for _, s := range q.Selections() {
		p *= l.selectionSurvivalLocked(s)
	}
	for _, j := range q.Joins() {
		p *= l.joinSurvivalLocked(j)
	}
	return p
}

// SubgraphRetention estimates P(q ⊆ next final query | q ⊆ this final
// query): the per-query reuse probability for the lookahead cost model.
func (l *Learner) SubgraphRetention(q *qgraph.Graph) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	selR := l.selRetention.estimate(l.cfg.SelectionRetentionPrior, l.cfg.PriorStrength)
	joinR := l.joinRetention.estimate(l.cfg.JoinRetentionPrior, l.cfg.PriorStrength)
	p := 1.0
	for range q.Selections() {
		p *= selR
	}
	for range q.Joins() {
		p *= joinR
	}
	return p
}

// CompletionProbability estimates P(formulation lasts at least `need` more
// seconds | it has lasted `elapsed` seconds): the chance an asynchronous
// manipulation of the given duration completes before GO. It uses the
// lognormal survival function fitted to observed formulation durations.
func (l *Learner) CompletionProbability(elapsed, need float64) float64 {
	if need <= 0 {
		return 1
	}
	l.mu.RLock()
	mu, sigma := l.thinkParamsLocked()
	l.mu.RUnlock()
	sTotal := logNormalSurvival(elapsed, mu, sigma)
	if sTotal <= 0 {
		return 0.05 // deep in the tail: almost surely about to hit GO
	}
	return logNormalSurvival(elapsed+need, mu, sigma) / sTotal
}

// thinkParamsLocked returns the fitted lognormal parameters, falling back to the
// Section 5 population statistics (median 11 s, sigma 1.42) until enough
// observations accumulate. Callers hold l.mu.
func (l *Learner) thinkParamsLocked() (mu, sigma float64) {
	if l.thinkN < 5 {
		return math.Log(11), 1.42
	}
	mu = l.thinkLogMean
	sigma = math.Sqrt(l.thinkLogM2 / l.thinkN)
	if sigma < 0.3 {
		sigma = 0.3
	}
	return mu, sigma
}

// logNormalSurvival is P(X > x) for X ~ LogNormal(mu, sigma).
func logNormalSurvival(x, mu, sigma float64) float64 {
	if x <= 0 {
		return 1
	}
	z := (math.Log(x) - mu) / (sigma * math.Sqrt2)
	return 0.5 * math.Erfc(z)
}
