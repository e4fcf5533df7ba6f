// Fixture for lockscope: target calls (Search, store I/O, Publish,
// Evaluate) made while a sync mutex is statically held must be
// flagged; calls after release, on fresh goroutines, or under an
// //aarc:locked waiver must not.
package svc

import (
	"sync"

	"lockscope/event"
	"lockscope/store"
	"lockscope/workflow"
)

type engine struct{}

func (engine) Search(q string) string { return q }

type S struct {
	mu  sync.Mutex
	aux sync.Mutex
	eng engine
	st  store.Store
	bus *event.Bus
	run *workflow.Runner
}

func (s *S) searchUnderLock(q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}

func (s *S) storeUnderLock() {
	s.mu.Lock()
	_ = s.st.Put("k", nil) // want `store I/O while holding mutex s\.mu`
	s.mu.Unlock()
}

func (s *S) publishUnderLock() {
	s.mu.Lock()
	s.bus.Publish("put", "fp") // want `an event publish while holding mutex s\.mu`
	s.mu.Unlock()
}

func (s *S) evaluateUnderLock() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.Evaluate(nil) // want `a workflow evaluation while holding mutex s\.mu`
}

// evaluateOwned is the sanctioned exception: the mutex exists to own
// the non-thread-safe callee.
func (s *S) evaluateOwned() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.Evaluate(nil) //aarc:locked the mutex owns this Runner; locking it is what makes Evaluate safe
}

func (s *S) afterUnlock(q string) string {
	s.mu.Lock()
	s.mu.Unlock()
	return s.eng.Search(q) // ok: lock already released
}

func (s *S) spawnedGoroutine(q string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.eng.Search(q) // ok: runs on its own goroutine, without the lock
	}()
}

// branchStaysHeld: a lock taken before a branch is held inside it.
func (s *S) branchStaysHeld(cold bool) {
	s.mu.Lock()
	if cold {
		_ = s.st.Put("k", nil) // want `store I/O while holding mutex s\.mu`
	}
	s.mu.Unlock()
}

func (s *S) noLockAtAll(q string) string {
	return s.eng.Search(q) // ok: nothing held
}

// localMutex: a function-local mutex is still a held lock here, even
// though it can never take part in a cross-function order cycle.
func (s *S) localMutex(q string) string {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex mu`
}

// lockInIfInit: a lock taken in an if statement's init clause is held
// in the body and stays held after the statement.
func (s *S) lockInIfInit(q string, cold bool) string {
	if s.mu.Lock(); cold {
		_ = s.st.Put("k", nil) // want `store I/O while holding mutex s\.mu`
	}
	defer s.mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}

// literalUnderLock: a function literal built while s.mu is held runs
// under it; a Lock/Unlock pair inside the literal releases only what
// it took.
func (s *S) literalUnderLock(q string) func() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() string {
		s.aux.Lock()
		s.aux.Unlock()
		return s.eng.Search(q) // want `a search while holding mutex s\.mu`
	}
}

// releaseThroughParens: unlocking through a parenthesized receiver
// releases the lock.
func (s *S) releaseThroughParens(q string) string {
	s.mu.Lock()
	(s.mu).Unlock()
	return s.eng.Search(q) // ok: lock already released
}

// otherInstance: unlocking another S's mu leaves this one held, since
// lockscope releases a lock by its receiver text.
func (s *S) otherInstance(o *S, q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	o.mu.Lock()
	o.mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}
