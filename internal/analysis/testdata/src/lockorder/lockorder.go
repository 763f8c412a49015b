// Package lockorder is a hiplint fixture for the lockorder analyzer:
// lock-order cycles closed directly and through a callee's summary.
package lockorder

import "sync"

// --- lock-order cycle ---

type accountA struct{ mu sync.Mutex }
type accountB struct{ mu sync.Mutex }
type config struct{ mu sync.Mutex }

func lockAB(a *accountA, b *accountB) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "closes a lock-order cycle"
	b.mu.Unlock()
}

func lockBA(a *accountA, b *accountB) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want "closes a lock-order cycle"
	a.mu.Unlock()
}

// orderedOK nests in one global order with no reversed path anywhere:
// the edge accountA.mu -> config.mu is on no cycle.
func orderedOK(a *accountA, c *config) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// --- cycle closed only through a callee's summary ---

type journal struct{ mu sync.Mutex }
type index struct{ mu sync.Mutex }

// lockIndex takes the index lock; its summary carries the acquisition.
func lockIndex(ix *index) {
	ix.mu.Lock()
	ix.mu.Unlock()
}

// journalThenIndex's edge exists only through lockIndex's summary.
func journalThenIndex(j *journal, ix *index) {
	j.mu.Lock()
	defer j.mu.Unlock()
	lockIndex(ix) // want "closes a lock-order cycle"
}

func indexThenJournal(j *journal, ix *index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	j.mu.Lock() // want "closes a lock-order cycle"
	j.mu.Unlock()
}

// --- one mutex spelled two ways ---

// A class is the struct type that declares the mutex, not the path that
// reaches it: o.s.mu and s.mu are one lock, so these two functions take
// the same two locks in opposite orders.
type owner struct {
	mu sync.Mutex
	s  *session
}
type session struct {
	mu    sync.Mutex
	owner *owner
}

func ownerThenSession(o *owner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.s.mu.Lock() // want "closes a lock-order cycle"
	o.s.mu.Unlock()
}

func sessionThenOwner(s *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.owner.mu.Lock() // want "closes a lock-order cycle"
	s.owner.mu.Unlock()
}
