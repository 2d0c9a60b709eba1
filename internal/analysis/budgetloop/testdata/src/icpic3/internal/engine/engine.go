// Stub of the real icpic3/internal/engine package for the budgetloop
// fixtures.
package engine

type Budget struct{ used bool }

func (b Budget) Tick() {}

func (b Budget) Expired() bool { return b.used }
