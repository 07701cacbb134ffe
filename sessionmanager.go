package specdb

import (
	"context"
	"fmt"
	"sync"

	"specdb/internal/core"
	"specdb/internal/engine"
)

// SessionManager opens and tracks concurrent sessions against one DB. All of
// its sessions share a single user profile — concurrent users train one
// Learner, the paper's multi-user deployment — while each session keeps its
// own deterministic simulated clock and speculator state. Speculative objects
// are namespaced per session ("spec_s<id>_..."), so concurrent manipulations
// never collide in the shared catalog.
//
// A SessionManager is safe for concurrent use.
type SessionManager struct {
	db      *DB
	learner *core.Learner

	mu       sync.Mutex
	sessions map[int64]*Session
	nextID   int64
}

// NewSessionManager creates a manager over db with a fresh shared profile.
// On a durable database the manager instead shares the DB's persistent
// profile, so what its sessions teach the Learner survives restarts.
func (db *DB) NewSessionManager() *SessionManager {
	learner := db.learner
	if learner == nil {
		learner = core.NewLearner(core.DefaultLearnerConfig())
	}
	return &SessionManager{
		db:       db,
		learner:  learner,
		sessions: make(map[int64]*Session),
	}
}

// Open starts a new session sharing the manager's learned profile.
func (m *SessionManager) Open(cfg SessionConfig) *Session {
	return m.OpenContext(context.Background(), cfg)
}

// OpenContext starts a new session bound to ctx: canceling ctx cancels the
// session's in-flight manipulation and fails every subsequent call on it.
func (m *SessionManager) OpenContext(ctx context.Context, cfg SessionConfig) *Session {
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()
	s := m.db.newSession(ctx, cfg, m.learner, fmt.Sprintf("%s_s%d", engine.VolatilePrefix, id), m, id)
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	return s
}

// OpenSessions reports how many sessions are currently open.
func (m *SessionManager) OpenSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Stats reports the speculation counters of every currently open session,
// keyed by session ID. Closed sessions are absent; snapshot before closing if
// their counters matter.
func (m *SessionManager) Stats() map[int64]Stats {
	m.mu.Lock()
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	// Collect outside m.mu: Session.Stats takes the session lock, and a
	// session closing concurrently calls back into m.remove.
	out := make(map[int64]Stats, len(open))
	for _, s := range open {
		out[s.ID()] = s.Stats()
	}
	return out
}

// remove deregisters a closed session.
func (m *SessionManager) remove(id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sessions, id)
}

// CloseAll closes every open session, releasing all their speculative
// objects, and returns the first error encountered.
func (m *SessionManager) CloseAll() error {
	// Snapshot first: Session.Close calls back into m.remove.
	m.mu.Lock()
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	var first error
	for _, s := range open {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
