// Package lru is the bounded least-recently-used map behind the serving
// layer's caches: the store.Memory recommendation tier and the
// service's process-private runner pools and dispatch engines.
//
// A Cache has no lock of its own. Every user already holds a mutex
// around its cache operations (Memory.mu, Service.mu), so a second lock
// here would only add a node to the lock-order graph.
package lru

import "container/list"

// Cache maps string keys to values of type V, holding at most its
// capacity; Add beyond capacity evicts the least recently used entry.
// It is not safe for concurrent use.
type Cache[V any] struct {
	capacity  int
	order     list.List // front = most recently used
	items     map[string]*list.Element
	evictions int64
}

type item[V any] struct {
	key string
	val V
}

// New builds a Cache holding at most capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{capacity: capacity, items: make(map[string]*list.Element, capacity)}
}

// Get returns the value for key and marks it most recently used. It
// moves an existing list element, so a hit allocates nothing.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*item[V]).val, true
}

// Add inserts or replaces key as the most recently used entry, evicting
// the least recently used one when the insert exceeds capacity.
func (c *Cache[V]) Add(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*item[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&item[V]{key: key, val: val})
	if c.order.Len() <= c.capacity {
		return
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*item[V]).key)
	c.evictions++
}

// Remove drops key if present.
func (c *Cache[V]) Remove(key string) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Clear drops every entry; the eviction count is kept.
func (c *Cache[V]) Clear() {
	c.order.Init()
	clear(c.items)
}

// Keys lists the keys, most recently used first.
func (c *Cache[V]) Keys() []string {
	keys := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*item[V]).key)
	}
	return keys
}

// Len returns the number of entries.
func (c *Cache[V]) Len() int { return c.order.Len() }

// Evictions counts the entries Add has dropped to stay within capacity.
func (c *Cache[V]) Evictions() int64 { return c.evictions }
