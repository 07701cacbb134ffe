// Package engine is a lint fixture mimicking the real engine's statement
// boundary: statement runs its body holding stmtMu, so a body that enters
// another statement acquires the lock twice.
package engine

import "sync"

type Engine struct {
	stmtMu sync.RWMutex
}

func (e *Engine) statement(body func() error) error {
	e.stmtMu.RLock()
	defer e.stmtMu.RUnlock()
	return body()
}

func (e *Engine) measured(body func() error) error {
	return e.statement(func() error { return body() })
}

// Query is a well-behaved entry point.
func (e *Engine) Query() error { return e.statement(func() error { return nil }) }

// Sequential enters two statements one after the other: fine.
func (e *Engine) Sequential() error {
	if err := e.Query(); err != nil {
		return err
	}
	return e.Query()
}

// Nested enters Query from inside its own statement body, one call down.
func (e *Engine) Nested() error {
	return e.measured(func() error { return e.helper() })
}

func (e *Engine) helper() error { return e.Query() }

// ByName hands the boundary an entry point as the body itself.
func (e *Engine) ByName() error { return e.statement(e.Query) }
