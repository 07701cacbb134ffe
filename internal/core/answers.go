package core

import (
	"sort"
	"sync"

	"specdb/internal/obs"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// DefaultAnswerCachePages is the answer cache's default footprint cap.
const DefaultAnswerCachePages = 256

// answerEntry is one cached final-query answer.
type answerEntry struct {
	rows   []tuple.Row
	schema *tuple.Schema
	// cost is the simulated duration the producing execution took — the time
	// a later replay saves by hitting this entry.
	cost  sim.Duration
	pages int
	// versions snapshots each base relation's engine data version at capture:
	// the entry is valid only while every one still matches, so any base-table
	// write invalidates exactly the answers that read it.
	versions map[string]uint64
	// refs counts sessions currently holding the entry (the producer plus
	// every later claimant); eviction only ever takes refs == 0 entries.
	refs int
	hits int
}

// AnswerCache is the keyed store of completed predicted-final answers
// (DESIGN.md §14): entries are keyed by FormKey, invalidated by base-table
// writes through per-relation data versions, refcounted like SharedBuilds,
// and garbage-collected under footprint pressure. It is shared across the
// sessions of one database and safe for concurrent use. A nil *AnswerCache
// disables answer caching; every method is nil-safe.
type AnswerCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*answerEntry
	pages    int

	obsHits, obsMisses, obsStored  *obs.Counter
	obsInvalidated, obsEvicted     *obs.Counter
	obsUnholdable, obsUnholdableNs *obs.Counter
	obsPages                       *obs.Gauge
}

// NewAnswerCache constructs an answer cache capped at capacityPages
// (0 means DefaultAnswerCachePages). reg may be nil for an unobserved cache.
func NewAnswerCache(reg *obs.Registry, capacityPages int) *AnswerCache {
	if capacityPages <= 0 {
		capacityPages = DefaultAnswerCachePages
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &AnswerCache{
		capacity:        capacityPages,
		entries:         make(map[string]*answerEntry),
		obsHits:         reg.Counter("answers.hits"),
		obsMisses:       reg.Counter("answers.misses"),
		obsStored:       reg.Counter("answers.stored"),
		obsInvalidated:  reg.Counter("answers.invalidated"),
		obsEvicted:      reg.Counter("answers.evicted"),
		obsUnholdable:   reg.Counter("answers.unholdable"),
		obsUnholdableNs: reg.Counter("answers.unholdable_ns"),
		obsPages:        reg.Gauge("answers.pages"),
	}
}

// Admits reports whether an answer whose estimated footprint is pages could
// ever be stored: Put refuses an entry larger than the whole cache, whatever
// the cache holds at the time, and a nil cache stores nothing. It is the one
// admission rule — Put applies it, and a speculator's admission walk asks it
// before issuing a predicted final, so one that can never be stored never
// runs (DESIGN.md §14). The capacity never changes, so no lock is needed.
func (ac *AnswerCache) Admits(pages int) bool {
	return ac != nil && max(pages, MinEstPages) <= ac.capacity
}

// Put stores a completed answer under key, taking one reference for the
// caller whenever it returns true. pages is clamped to at least MinEstPages
// so no entry is footprint-free. An entry the cache does not admit is
// rejected (false) and counted, with the simulated cost of the execution that
// produced it, in answers.unholdable and answers.unholdable_ns; replacing an
// existing key refreshes its contents and versions and adds the caller's
// reference to the ones already held.
func (ac *AnswerCache) Put(key string, rows []tuple.Row, schema *tuple.Schema, cost sim.Duration, pages int, versions map[string]uint64) bool {
	if ac == nil {
		return false
	}
	if !ac.Admits(pages) {
		ac.obsUnholdable.Inc()
		ac.obsUnholdableNs.Add(int64(cost))
		return false
	}
	pages = max(pages, MinEstPages)
	ac.mu.Lock()
	defer ac.mu.Unlock()
	vcopy := make(map[string]uint64, len(versions))
	for k, v := range versions {
		vcopy[k] = v
	}
	if old, ok := ac.entries[key]; ok {
		ac.pages -= old.pages
		old.rows, old.schema, old.cost, old.pages, old.versions = rows, schema, cost, pages, vcopy
		old.refs++
		ac.pages += pages
	} else {
		ac.entries[key] = &answerEntry{rows: rows, schema: schema, cost: cost, pages: pages, versions: vcopy, refs: 1}
		ac.pages += pages
	}
	ac.evictLocked(key)
	ac.obsStored.Inc()
	ac.obsPages.Set(float64(ac.pages))
	return true
}

// evictLocked sheds refs == 0 entries (never the just-touched keep key) until
// the footprint fits the capacity. Victims are taken least-hit first, key-
// ascending on ties — a total deterministic order, so replays evict the same
// answers in the same sequence. Callers hold ac.mu.
func (ac *AnswerCache) evictLocked(keep string) {
	if ac.pages <= ac.capacity {
		return
	}
	victims := make([]string, 0, len(ac.entries))
	for k, e := range ac.entries {
		if k != keep && e.refs == 0 {
			victims = append(victims, k)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		hi, hj := ac.entries[victims[i]].hits, ac.entries[victims[j]].hits
		if hi != hj {
			return hi < hj
		}
		return victims[i] < victims[j]
	})
	for _, k := range victims {
		if ac.pages <= ac.capacity {
			break
		}
		ac.pages -= ac.entries[k].pages
		delete(ac.entries, k)
		ac.obsEvicted.Inc()
	}
}

// Get looks up key, verifying freshness: current reports each base relation's
// live data version, and any mismatch with the captured versions drops the
// entry (a base-table write invalidated it) and misses. A hit holds NO new
// reference — pair with Ref for retained use — and credits the entry's hit
// count. The returned rows are the cache's own: shared with every other
// consumer of the entry, and read-only.
func (ac *AnswerCache) Get(key string, current func(rel string) uint64) (rows []tuple.Row, schema *tuple.Schema, cost sim.Duration, ok bool) {
	if ac == nil {
		return nil, nil, 0, false
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	e, found := ac.entries[key]
	if !found {
		ac.obsMisses.Inc()
		return nil, nil, 0, false
	}
	if current != nil {
		for rel, v := range e.versions {
			if current(rel) != v {
				ac.pages -= e.pages
				delete(ac.entries, key)
				ac.obsInvalidated.Inc()
				ac.obsMisses.Inc()
				ac.obsPages.Set(float64(ac.pages))
				return nil, nil, 0, false
			}
		}
	}
	e.hits++
	ac.obsHits.Inc()
	return e.rows, e.schema, e.cost, true
}

// Ref adds a reference on key (a session retaining the answer), reporting
// whether the entry exists.
func (ac *AnswerCache) Ref(key string) bool {
	if ac == nil {
		return false
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	e, ok := ac.entries[key]
	if !ok {
		return false
	}
	e.refs++
	return true
}

// Release drops one reference on key. Unlike a held view in the Ledger, the
// entry is NOT removed at refs == 0 — a cached answer is an asset for future
// replays — it becomes evictable. The release that drops the last reference
// sheds refs == 0 entries until the footprint fits the capacity, so the cap
// holds at rest, not only at the next Put.
func (ac *AnswerCache) Release(key string) {
	if ac == nil {
		return
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	e, ok := ac.entries[key]
	if !ok || e.refs == 0 {
		return
	}
	e.refs--
	if e.refs == 0 {
		ac.evictLocked("")
		ac.obsPages.Set(float64(ac.pages))
	}
}

// Len reports the number of cached answers.
func (ac *AnswerCache) Len() int {
	if ac == nil {
		return 0
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return len(ac.entries)
}

// Pages reports the cache's current footprint.
func (ac *AnswerCache) Pages() int {
	if ac == nil {
		return 0
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.pages
}
