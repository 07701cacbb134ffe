package core

import (
	"sync"

	"specdb/internal/buffer"
	"specdb/internal/obs"
)

// Scheduler coordinates speculative work across every session of one engine:
// it caps how many manipulations may run concurrently (the worker pool) and
// applies admission control against the buffer pool's headroom, so
// speculation can never evict a foreground query's working set.
//
// Dispatch order is benefit-ordered by construction: each speculator walks
// its candidates in descending Cost⊆(m) score, and the scheduler only decides
// *how many* of those issues are admitted. The first outstanding job of every
// speculator is always admitted — that is exactly the paper's
// one-manipulation-per-user convention, so the default SpecWorkers=1
// configuration behaves, decision for decision, like the scheduler does not
// exist. Extra jobs (a speculator going wide) are the only ones gated.
//
// A nil *Scheduler is valid and admits everything, so single-session tests
// need no wiring.
type Scheduler struct {
	mu       sync.Mutex
	workers  int
	inflight int
	pool     *buffer.Pool
	reserve  int // frames always left to the foreground working set
	// floorPages is the conservative footprint assumed for a job with no
	// cost estimate. The cost model never prices a materialization below
	// MinEstPages, so EstPages == 0 means "unscored", not "free" — admission
	// assumes half the foreground reserve rather than zero.
	floorPages int
	// cse, when attached, lets admission cost shared builds once globally: a
	// job whose subplan is already registered (built or building) adds no new
	// pages, so its per-copy estimate is not held against the pool headroom.
	cse *SharedBuilds

	obsAdmitted, obsDeferred *obs.Counter
}

// NewScheduler returns a scheduler dispatching up to workers concurrent
// manipulations over pool. A quarter of the pool's capacity is reserved for
// the foreground working set: extra speculative jobs are deferred unless
// their estimated footprint fits in the pool's current headroom minus that
// reserve. workers < 1 is treated as 1; pool may be nil (no pressure gate).
func NewScheduler(workers int, pool *buffer.Pool) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{workers: workers, pool: pool, floorPages: MinEstPages}
	if pool != nil {
		s.reserve = pool.Capacity() / 4
		if f := s.reserve / 2; f > s.floorPages {
			s.floorPages = f
		}
	}
	return s
}

// AttachCSE wires the shared-build registry into admission decisions.
func (s *Scheduler) AttachCSE(sb *SharedBuilds) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cse = sb
}

// AttachMetrics mirrors admission decisions into reg.
func (s *Scheduler) AttachMetrics(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsAdmitted = reg.Counter("sched.admitted")
	s.obsDeferred = reg.Counter("sched.deferred")
}

// Inflight reports how many admitted jobs have not yet released their slot.
func (s *Scheduler) Inflight() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// AdmitExtraKeyed decides whether a speculator may go beyond its first
// outstanding job with the manipulation key, whose retained footprint is
// estPages: a worker slot must be free and the footprint must fit in the
// pool's current headroom minus the foreground reserve. A missing estimate
// (estPages <= 0) is floored to floorPages — the cost model never prices
// real work at zero, so an unscored footprint must not auto-admit. When a
// shared-build registry is attached and the key's subplan is already
// registered (ready or in flight), the job adds no new pages — the build
// exists once globally — so admission charges it zero footprint instead of
// the per-copy estimate. It does not claim the slot — the speculator calls
// Acquire once the job really starts.
func (s *Scheduler) AdmitExtraKeyed(key string, estPages int) bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight >= s.workers {
		s.obsDeferred.Inc()
		return false
	}
	pages := estPages
	switch {
	case s.cse != nil && key != "" && s.cse.Known(sharedGraphKey(key)):
		pages = 0
	case pages <= 0:
		pages = s.floorPages
	}
	if s.pool != nil && pages > s.pool.Headroom()-s.reserve {
		s.obsDeferred.Inc()
		return false
	}
	s.obsAdmitted.Inc()
	return true
}

// sharedGraphKey strips a materialization manipulation key ("mat|<graph>")
// down to the registry's graph key; other manipulation kinds are never
// shared, so their keys pass through unchanged (and miss the registry).
func sharedGraphKey(key string) string {
	if len(key) > 4 && key[:4] == "mat|" {
		return key[4:]
	}
	return key
}

// Acquire claims one worker slot for an issued job. Every issued job holds
// exactly one slot from issue to its terminal transition (completion,
// cancellation, or abort); the first job of a speculator claims its slot
// unconditionally, which can transiently overcommit the cap — preserving the
// invariant that a lone speculator is never throttled.
func (s *Scheduler) Acquire() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
}

// Release frees the slot claimed by Acquire.
func (s *Scheduler) Release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.inflight > 0 {
		s.inflight--
	}
	s.mu.Unlock()
}
