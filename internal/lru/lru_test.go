package lru

import (
	"slices"
	"testing"
)

// model is the reference LRU: a slice of keys and values, most recently
// used first, with linear scans everywhere.
type model struct {
	capacity  int
	keys      []string
	vals      []int
	evictions int64
}

func (m *model) find(key string) int { return slices.Index(m.keys, key) }

func (m *model) touch(i int) {
	k, v := m.keys[i], m.vals[i]
	m.keys = slices.Insert(slices.Delete(m.keys, i, i+1), 0, k)
	m.vals = slices.Insert(slices.Delete(m.vals, i, i+1), 0, v)
}

func (m *model) get(key string) (int, bool) {
	i := m.find(key)
	if i < 0 {
		return 0, false
	}
	m.touch(i)
	return m.vals[0], true
}

// add returns the key it evicted, if any.
func (m *model) add(key string, val int) (evicted string, ok bool) {
	if i := m.find(key); i >= 0 {
		m.touch(i)
		m.vals[0] = val
		return "", false
	}
	m.keys = slices.Insert(m.keys, 0, key)
	m.vals = slices.Insert(m.vals, 0, val)
	if len(m.keys) <= m.capacity {
		return "", false
	}
	evicted = m.keys[len(m.keys)-1]
	m.keys, m.vals = m.keys[:len(m.keys)-1], m.vals[:len(m.vals)-1]
	m.evictions++
	return evicted, true
}

func (m *model) remove(key string) {
	if i := m.find(key); i >= 0 {
		m.keys = slices.Delete(m.keys, i, i+1)
		m.vals = slices.Delete(m.vals, i, i+1)
	}
}

// FuzzLRU drives random Add/Get/Remove/Keys/Clear sequences at
// capacities 1–8 against the slice model: every Get's value, every
// evicted key, Len, the most-recent-first Keys order and the eviction
// count must agree after each operation.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 1, 3, 0})
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 1, 1, 0, 4, 2, 2, 3, 0, 0, 5, 4, 0})
	f.Add([]byte{7, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0]%8) + 1
		c, m := New[int](capacity), &model{capacity: capacity}
		for i := 1; i+1 < len(data); i += 2 {
			op, key, val := data[i]%5, string(rune('a'+data[i+1]%10)), int(data[i+1])
			switch op {
			case 0:
				c.Add(key, val)
				if evicted, ok := m.add(key, val); ok && slices.Contains(c.Keys(), evicted) {
					t.Fatalf("op %d: Add(%q) should have evicted %q, keys %v", i, key, evicted, c.Keys())
				}
			case 1:
				got, gotOK := c.Get(key)
				want, wantOK := m.get(key)
				if got != want || gotOK != wantOK {
					t.Fatalf("op %d: Get(%q) = %d, %v; want %d, %v", i, key, got, gotOK, want, wantOK)
				}
			case 2:
				c.Remove(key)
				m.remove(key)
			case 3:
				// Keys is compared after every operation below.
			case 4:
				c.Clear()
				m.keys, m.vals = m.keys[:0], m.vals[:0]
			}
			if got := c.Keys(); !slices.Equal(got, m.keys) {
				t.Fatalf("op %d: Keys = %v, want %v", i, got, m.keys)
			}
			if c.Len() != len(m.keys) {
				t.Fatalf("op %d: Len = %d, want %d", i, c.Len(), len(m.keys))
			}
			if c.Evictions() != m.evictions {
				t.Fatalf("op %d: Evictions = %d, want %d", i, c.Evictions(), m.evictions)
			}
		}
	})
}
