// Package deferpath is the lockcheck fixture for per-path defers: a
// deferred unlock covers only the path that registered it, so a defer
// on one branch must not mask a leak on its sibling.
package deferpath

import "sync"

type S struct {
	//lint:guards n
	mu sync.Mutex
	n  int
}

// Bad defers the unlock on one branch only; the other path falls off
// the end with the lock held.
func (s *S) Bad(cond bool) {
	s.mu.Lock()
	if cond {
		defer s.mu.Unlock()
		s.n++
		return
	}
	s.n = 2
} // want `s\.mu falls off the end still held`

// Good releases on both paths: a deferred unlock on the returning
// branch, an explicit one on the other.
func (s *S) Good(cond bool) {
	s.mu.Lock()
	if cond {
		defer s.mu.Unlock()
		s.n++
		return
	}
	s.n = 2
	s.mu.Unlock()
}

// BothDefer registers the defer on both branches, so the join keeps it.
func (s *S) BothDefer(cond bool) int {
	s.mu.Lock()
	if cond {
		defer s.mu.Unlock()
	} else {
		defer s.mu.Unlock()
	}
	return s.n
}

// OneSideDefer registers it on one branch of an if that both fall out
// of; the join drops it, so the return leaks on the other path.
func (s *S) OneSideDefer(cond bool) int {
	s.mu.Lock()
	if cond {
		defer s.mu.Unlock()
	}
	return s.n // want `return while s\.mu is held`
}
