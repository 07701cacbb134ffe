package engine

import "specdb/internal/plan"

// RunQueryWith is RunQuery under the engine's planning options as tune
// changes them, with no degraded retry: the external tests of this package
// (planchoice_test.go) run a corpus final under a steered plan, and they
// need harness and tpch, which import the engine, so cannot live inside it.
func (e *Engine) RunQueryWith(q *plan.Query, tune func(*plan.Options)) (*Result, error) {
	return e.measured("RunQuery", "", readsOnly, func(st *stmt, res *Result) error {
		opts := e.planOptions()
		tune(&opts)
		_, err := e.planAndRun(st, res, q, opts, nil, true)
		return err
	})
}

// Plan optimizes q under the engine's planning options without running it:
// the plan-choice golden (planchoice_test.go) renders it.
func (e *Engine) Plan(q *plan.Query) (plan.Node, error) {
	return plan.Optimize(e.Catalog, q, e.planOptions())
}
