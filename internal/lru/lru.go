// Package lru is the one eviction policy behind every cache tier: a map
// whose entries carry a size, bounded by entry count and by summed size,
// that evicts the least recently used entry first. The service's memory
// tier and its request-body aliases, the disk tier's index and the
// dtcached store are each an LRU.
//
// An LRU is not safe for concurrent use: each owner guards it with its
// own mutex, beside the owner's own counters.
package lru

// LRU maps keys to sized values and keeps at most maxEntries entries and
// maxBytes of summed size, evicting least recently used entries first.
// The newest entry is never evicted, even when it alone exceeds the byte
// bound: a value worth storing is worth returning.
type LRU[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64
	onEvict    func(K, V)

	bytes int64
	items map[K]*entry[K, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry and root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// New returns an empty LRU holding at most maxEntries entries and
// maxBytes of summed size; a bound <= 0 is no bound. onEvict, when not
// nil, is called with every entry a bound evicts, before Put returns.
func New[K comparable, V any](maxEntries int, maxBytes int64, onEvict func(K, V)) *LRU[K, V] {
	c := &LRU[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, onEvict: onEvict, items: make(map[K]*entry[K, V])}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Len returns the number of entries.
func (c *LRU[K, V]) Len() int { return len(c.items) }

// Bytes returns the summed size of the entries.
func (c *LRU[K, V]) Bytes() int64 { return c.bytes }

// Get returns key's value and whether it was present, and makes a
// present key the most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Peek returns key's value and whether it was present, leaving recency
// as it is.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores val with the given size under key as the most recently used
// entry, replacing any value key held, then evicts the least recently
// used entries while either bound is exceeded.
func (c *LRU[K, V]) Put(key K, val V, size int64) {
	e, ok := c.items[key]
	if ok {
		c.unlink(e)
		c.bytes += size - e.size
		e.val, e.size = val, size
	} else {
		e = &entry[K, V]{key: key, val: val, size: size}
		c.items[key] = e
		c.bytes += size
	}
	c.pushFront(e)
	for len(c.items) > 1 && (c.maxEntries > 0 && len(c.items) > c.maxEntries || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		old := c.root.prev
		c.drop(old)
		if c.onEvict != nil {
			c.onEvict(old.key, old.val)
		}
	}
}

// Remove drops key's entry and reports whether it was present; the
// eviction callback is not called.
func (c *LRU[K, V]) Remove(key K) bool {
	e, ok := c.items[key]
	if ok {
		c.drop(e)
	}
	return ok
}

// Keys returns the keys from the most to the least recently used.
func (c *LRU[K, V]) Keys() []K {
	keys := make([]K, 0, len(c.items))
	for e := c.root.next; e != &c.root; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

func (c *LRU[K, V]) drop(e *entry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.bytes -= e.size
}

func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}
