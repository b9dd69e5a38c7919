package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// model is the plain reference LRU: a slice ordered from the most to the
// least recently used entry.
type model struct {
	maxEntries int
	maxBytes   int64
	entries    []modelEntry
	evicted    []int
}

type modelEntry struct {
	key, val int
	size     int64
}

func (m *model) find(key int) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.key == key })
}

func (m *model) bytes() int64 {
	var n int64
	for _, e := range m.entries {
		n += e.size
	}
	return n
}

func (m *model) get(key int) (int, bool) {
	i := m.find(key)
	if i < 0 {
		return 0, false
	}
	e := m.entries[i]
	m.entries = slices.Insert(slices.Delete(m.entries, i, i+1), 0, e)
	return e.val, true
}

func (m *model) put(key, val int, size int64) {
	if i := m.find(key); i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	m.entries = slices.Insert(m.entries, 0, modelEntry{key, val, size})
	for len(m.entries) > 1 &&
		((m.maxEntries > 0 && len(m.entries) > m.maxEntries) || (m.maxBytes > 0 && m.bytes() > m.maxBytes)) {
		m.evicted = append(m.evicted, m.entries[len(m.entries)-1].key)
		m.entries = m.entries[:len(m.entries)-1]
	}
}

func (m *model) remove(key int) bool {
	i := m.find(key)
	if i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	return i >= 0
}

// TestLRUMatchesModel runs random Get, Peek, Put and Remove sequences
// under entry bounds, byte bounds, both and neither, and after every
// operation compares the LRU's answers, contents, recency order, byte
// total and evicted keys with the slice model's.
func TestLRUMatchesModel(t *testing.T) {
	bounds := []struct {
		entries int
		bytes   int64
	}{{0, 0}, {1, 0}, {5, 0}, {0, 40}, {4, 25}, {8, 1}}
	for _, b := range bounds {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("entries=%d/bytes=%d/seed=%d", b.entries, b.bytes, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				m := &model{maxEntries: b.entries, maxBytes: b.bytes}
				var evicted []int
				c := New(b.entries, b.bytes, func(k, v int) {
					if v/1000 != k {
						t.Errorf("evicted key %d with another key's value %d", k, v)
					}
					evicted = append(evicted, k)
				})
				for op := 0; op < 400; op++ {
					key := rng.Intn(12)
					switch r := rng.Intn(10); {
					case r < 3:
						got, ok := c.Get(key)
						want, wantOK := m.get(key)
						if got != want || ok != wantOK {
							t.Fatalf("op %d: Get(%d) = %d, %v; model %d, %v", op, key, got, ok, want, wantOK)
						}
					case r < 4:
						got, ok := c.Peek(key)
						i := m.find(key)
						if ok != (i >= 0) || (ok && got != m.entries[i].val) {
							t.Fatalf("op %d: Peek(%d) = %d, %v; model index %d", op, key, got, ok, i)
						}
					case r < 9:
						val, size := key*1000+op, int64(rng.Intn(12))
						c.Put(key, val, size)
						m.put(key, val, size)
					default:
						if got, want := c.Remove(key), m.remove(key); got != want {
							t.Fatalf("op %d: Remove(%d) = %v, model %v", op, key, got, want)
						}
					}
					checkLRU(t, op, c, m, evicted)
				}
			})
		}
	}
}

func checkLRU(t *testing.T, op int, c *LRU[int, int], m *model, evicted []int) {
	t.Helper()
	want := make([]int, len(m.entries))
	for i, e := range m.entries {
		want[i] = e.key
		if v, ok := c.Peek(e.key); !ok || v != e.val {
			t.Fatalf("op %d: key %d holds %d, %v; model %d", op, e.key, v, ok, e.val)
		}
	}
	if got := c.Keys(); !slices.Equal(got, want) {
		t.Fatalf("op %d: order %v, model %v", op, got, want)
	}
	if c.Len() != len(m.entries) || c.Bytes() != m.bytes() {
		t.Fatalf("op %d: %d entries of %d bytes, model %d of %d", op, c.Len(), c.Bytes(), len(m.entries), m.bytes())
	}
	if !slices.Equal(evicted, m.evicted) {
		t.Fatalf("op %d: evicted %v, model %v", op, evicted, m.evicted)
	}
}
