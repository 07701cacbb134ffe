package core

import (
	"specdb/internal/buffer"
	"specdb/internal/obs"
)

// Scheduler coordinates speculative work across every session of one engine:
// it caps how many manipulations may run concurrently (the asking
// speculator's Config.Workers, counted across the ledger) and
// applies admission control against the buffer pool's headroom, so
// speculation can never evict a foreground query's working set.
//
// Dispatch order is benefit-ordered by construction: each speculator walks
// its candidates in descending Cost⊆(m) score, and the scheduler only decides
// *how many* of those issues are admitted. The first outstanding job of every
// speculator is always admitted — that is exactly the paper's
// one-manipulation-per-user convention, so the default SpecWorkers=1
// configuration behaves, decision for decision, like the scheduler does not
// exist. Extra jobs (a speculator going wide) are the only ones gated. It is
// policy only: what is in flight it reads from the Ledger it is handed.
//
// A nil *Scheduler is valid and admits everything, so single-session tests
// need no wiring.
type Scheduler struct {
	pool    *buffer.Pool
	reserve int // frames always left to the foreground working set
	// floorPages is the conservative footprint assumed for a job with no
	// cost estimate. The cost model never prices a materialization below
	// MinEstPages, so EstPages == 0 means "unscored", not "free" — admission
	// assumes half the foreground reserve rather than zero.
	floorPages int

	obsAdmitted, obsDeferred *obs.Counter
}

// NewScheduler returns a scheduler over pool. A quarter of the pool's
// capacity is reserved for the foreground working set: extra speculative jobs
// are deferred unless their estimated footprint fits in the pool's current
// headroom minus that reserve. pool may be nil (no pressure gate).
func NewScheduler(pool *buffer.Pool) *Scheduler {
	s := &Scheduler{pool: pool, floorPages: MinEstPages}
	if pool != nil {
		s.reserve = pool.Capacity() / 4
		if f := s.reserve / 2; f > s.floorPages {
			s.floorPages = f
		}
	}
	return s
}

// AttachMetrics mirrors admission decisions into reg. Call it before the
// scheduler is handed to a session.
func (s *Scheduler) AttachMetrics(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.obsAdmitted = reg.Counter("sched.admitted")
	s.obsDeferred = reg.Counter("sched.deferred")
}

// AdmitExtra decides whether a speculator allowed workers outstanding jobs (its
// Config.Workers) may go beyond its first with the candidate entered in the
// ledger under key, whose retained footprint is estPages: fewer than workers
// other jobs may be in flight across the ledger's sessions — a job holds its
// slot from issue to its terminal transition, and a first job is never asked,
// so lone speculators can transiently overcommit the cap but are never
// throttled — and the footprint must fit in the pool's current headroom minus
// the foreground reserve. A missing estimate (estPages <= 0) is floored to
// floorPages — the cost model never prices real work at zero, so an unscored
// footprint must not auto-admit.
func (s *Scheduler) AdmitExtra(l *Ledger, key AssetKey, estPages, workers int) bool {
	if s == nil {
		return true
	}
	if estPages <= 0 {
		estPages = s.floorPages
	}
	if l.InFlight(key) >= workers || s.pool != nil && estPages > s.pool.Headroom()-s.reserve {
		s.obsDeferred.Inc()
		return false
	}
	s.obsAdmitted.Inc()
	return true
}
