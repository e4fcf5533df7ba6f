// Package dep fakes an imported store-like package: Clean is
// alloc-free, Dirty allocates, and the fact file must carry that
// distinction to importers.
package dep

// Clean is safe to call from a hot path.
func Clean(x int) int {
	return x + 1
}

// Dirty allocates; a hot path calling it must be flagged at the call
// site in the importing package.
func Dirty() *int {
	return new(int)
}

// DirtyTransitive is clean itself but calls Dirty — importers must see
// through one level of in-package indirection via the fact's call
// list.
func DirtyTransitive() *int {
	return Dirty()
}

// Cache is generic in its value, like the serving LRU under
// store.Memory.Get: the fact must name its methods so that a call
// through an instantiation in the importer resolves to them.
type Cache[V any] struct {
	items map[string]V
}

// Get allocates a copy of the value.
func (c *Cache[V]) Get(key string) *V {
	v := new(V)
	*v = c.items[key]
	return v
}
