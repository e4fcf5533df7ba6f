package store

import (
	"errors"
	"sync"

	"aarc/internal/lru"
)

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Memory is the bounded least-recently-used in-memory store: an
// lru.Cache behind the Store contract, guarded by one mutex. Get marks
// an entry most recently used; Put beyond capacity evicts the least
// recently used entry. Safe for concurrent use.
type Memory struct {
	mu     sync.Mutex
	lru    *lru.Cache[Entry]
	closed bool
}

// NewMemory builds a Memory store holding at most capacity entries
// (minimum 1).
func NewMemory(capacity int) *Memory {
	return &Memory{lru: lru.New[Entry](capacity)}
}

// Get implements Store. It sits under the serving fast path, so it is
// pinned alloc-free (the LRU bump moves an existing list element; no
// node is created).
//
//aarc:hotpath
func (m *Memory) Get(key string) (Entry, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Entry{}, false, ErrClosed
	}
	e, ok := m.lru.Get(key)
	return e, ok, nil
}

// Put implements Store, evicting the least recently used entry when the
// insert exceeds capacity.
func (m *Memory) Put(key string, e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.lru.Add(key, e)
	return nil
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.lru.Remove(key)
	return nil
}

// Keys implements Store, most recently used first.
func (m *Memory) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Keys()
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// Close implements Store, dropping every entry.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.lru.Clear()
	return nil
}

// Stats implements StatsReporter.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Kind:      "memory",
		Tiers:     map[string]int{"memory": m.lru.Len()},
		Evictions: m.lru.Evictions(),
	}
}
