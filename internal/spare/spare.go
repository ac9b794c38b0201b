// Package spare holds what a torn-down owner leaves behind for the next one
// to start on: slabs and frame tables (mem), page-table chunks and address
// spaces' books (vm), managers' restore scratch (core). Each is one List.
//
// A List is locked, so owners on distinct goroutines may share it. It is not
// a sync.Pool, which drops its contents within two collections: a teardown
// is often followed by one before the next owner is built, and what a
// collection found idle would be made again. It needs no bound of its own:
// its users make a value only while the list is empty, so what a list's
// values hold, live and spare together, never exceeds what the process once
// held live.
package spare

import "sync"

// List is a locked LIFO of spare values. Its zero value is an empty list,
// ready to use.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Put adds vs to the list, the last of them on top.
func (l *List[T]) Put(vs ...T) {
	l.mu.Lock()
	l.free = append(l.free, vs...)
	l.mu.Unlock()
}

// Take pops the value put last, or reports false if the list is empty. The
// slot it leaves is zeroed, so the list keeps no reference to the value.
func (l *List[T]) Take() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v, l.free[n-1] = l.free[n-1], v
		l.free, ok = l.free[:n-1], true
	}
	l.mu.Unlock()
	return v, ok
}

// Emptied returns s at length 0 with every slot up to its capacity zeroed, so
// that nothing its last owner put there (a region's name, a chunk) stays
// reachable through it.
func Emptied[S ~[]E, E any](s S) S {
	s = s[:0]
	clear(s[:cap(s)])
	return s
}
