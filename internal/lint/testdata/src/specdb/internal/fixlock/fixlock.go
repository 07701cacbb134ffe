// Package fixlock is a speclint test fixture: violations (and
// non-violations) of the lock-discipline rule.
package fixlock

import "sync"

// Box guards n with mu; cap is set at construction and never written under
// the lock, so it is not part of the inferred guarded set.
type Box struct {
	mu  sync.Mutex
	n   int
	cap int
}

// Inc establishes n as lock-guarded: it writes n while holding mu.
func (b *Box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// BadRead reads the guarded field without taking the lock.
func (b *Box) BadRead() int {
	return b.n
}

// BadCheckThenLock reads the guarded field before acquiring the lock.
func (b *Box) BadCheckThenLock() int {
	if b.n == 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// GoodRead locks first.
func (b *Box) GoodRead() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// GoodEarlyReturn unlocks on a guard clause; the fall-through path is still
// under the lock and must not be flagged.
func (b *Box) GoodEarlyReturn() int {
	b.mu.Lock()
	if b.cap == 0 {
		b.mu.Unlock()
		return 0
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// Cap reads an unguarded field; no lock needed.
func (b *Box) Cap() int { return b.cap }

// peekLocked relies on the caller's lock. Box declares Locked helpers, so it
// is under strict discipline: an unexported helper that skips locking must
// carry the Locked suffix (a bare `peek` would be flagged — see Lax below for
// the non-strict counterpart).
func (b *Box) peekLocked() int { return b.n }

// bumpLocked is the documented caller-holds-the-lock shape.
func (b *Box) bumpLocked() { b.n++ }

// BadBumpLocked promises the caller holds the lock, then takes it anyway.
func (b *Box) BadBumpLocked() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// Drain uses peekLocked/bumpLocked correctly under one critical section.
func (b *Box) Drain() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bumpLocked()
	return b.peekLocked()
}

// Lax has no *Locked helpers, so the relaxed discipline applies: unexported
// methods may rely on the caller's lock without a Locked suffix.
type Lax struct {
	mu sync.Mutex
	n  int
}

// Add establishes n as lock-guarded.
func (l *Lax) Add(d int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n += d
}

// peek relies on Add's callers holding the lock; without a Locked helper on
// the struct this stays un-flagged.
func (l *Lax) peek() int { return l.n }

// Table guards n with mu. slots is never assigned as a whole under the lock,
// so it is not guarded; only its elements change.
type Table struct {
	mu    sync.Mutex
	slots []int
	n     int
}

// Add establishes n as lock-guarded.
func (t *Table) Add() {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

// BadIndexRead writes an unguarded slot, but reads the guarded n to index
// it, without the lock.
func (t *Table) BadIndexRead() {
	t.slots[t.n] = 1
}

// Later touches n only inside a goroutine and a returned closure; each runs
// under its own locking, not this method's, so neither is flagged here.
func (t *Table) Later() func() int {
	go func() {
		t.n--
	}()
	return func() int { return t.n }
}

// resetLocked holds the caller's lock; the closure it returns takes the lock
// itself when it runs later, which is not a re-lock.
func (t *Table) resetLocked() func() {
	t.n = 0
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.n = 0
	}
}
