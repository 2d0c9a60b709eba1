package bmc

import (
	"icpic3/internal/engine"
	"icpic3/internal/icp"
)

// SetOnExit installs f as the observer of exact-trace exits and returns
// a function that removes it.
func SetOnExit(f func(u *Unrolling, robust bool)) (restore func()) {
	onExit = f
	return func() { onExit = nil }
}

// SetNoExit turns the exact-trace exit off for unrollings made until the
// returned function restores it.
func SetNoExit() (restore func()) {
	noExit = true
	return func() { noExit = false }
}

// Reask asks u's violation query of the current depth again, on a fresh
// unrolling of the same system and step-0 restriction without the exit, at the engines' default
// precision (a query with a real model is Sat at any precision).
func (u *Unrolling) Reask(robust bool) (icp.Status, error) {
	v, err := NewUnrolling(u.sys, icp.Options{Eps: engine.DefaultEps}, u.base, u.tol)
	if err != nil {
		return 0, err
	}
	v.stepper = nil
	v.Restrict(u.start)
	for len(v.steps) < len(u.steps) {
		if err := v.Extend(); err != nil {
			return 0, err
		}
	}
	a, err := v.Ask(robust)
	return a.Status, err
}

// Depth is the unrolling's current depth.
func (u *Unrolling) Depth() int { return len(u.steps) - 1 }

// IsBase reports whether u is a base unrolling.
func (u *Unrolling) IsBase() bool { return u.base }
