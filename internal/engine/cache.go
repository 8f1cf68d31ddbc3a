package engine

import "container/list"

// DefaultCacheBytes is the result cache's budget when EngineOptions.CacheBytes
// is zero.
const DefaultCacheBytes = 16 << 20

// resultCache is the engine's answer cache: an LRU bounded by bytes, not
// entries — one edgecounts answer can weigh what ten thousand counts do. An
// entry is charged the deterministic estimate of its decoded value when it
// is put and its encoded length once a reply has filled its cell; the sum
// is kept exact across eviction and the per-mutation purge. Every method
// runs with Engine.mu held.
type resultCache struct {
	budget    int64
	bytes     int64
	evictions uint64                     // entries pushed out by the budget (not purged)
	entries   map[cacheKey]*list.Element // Value is *cacheEntry
	lru       list.List                  // front = most recently asked
}

type cacheEntry struct {
	key   cacheKey
	qr    QueryResult
	bytes int64
}

func newResultCache(budget int64) *resultCache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &resultCache{budget: budget, entries: make(map[cacheKey]*list.Element)}
}

func (c *resultCache) get(k cacheKey) (QueryResult, bool) {
	el, ok := c.entries[k]
	if !ok {
		return QueryResult{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).qr, true
}

// put keeps qr under k as the most recently asked entry, then evicts from
// the cold end until the budget holds. An answer that alone exceeds the
// budget is not kept: its askers have been (or will be) served from the
// result they hold.
func (c *resultCache) put(k cacheKey, qr QueryResult) {
	if el, ok := c.entries[k]; ok {
		c.remove(el)
	}
	ent := &cacheEntry{key: k, qr: qr, bytes: qr.ResidentBytes()}
	if ent.bytes > c.budget {
		c.evictions++
		return
	}
	c.entries[k] = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	c.trim()
}

// charge adds cell's encoded length to the entry under k, if that entry
// still holds this cell (it may have been evicted, purged or replaced
// since the answer was produced).
func (c *resultCache) charge(k cacheKey, cell *encoded) {
	el, ok := c.entries[k]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if ent.qr.enc != cell {
		return
	}
	c.bytes -= ent.bytes
	ent.bytes = ent.qr.ResidentBytes()
	c.bytes += ent.bytes
	if ent.bytes > c.budget {
		c.remove(el)
		c.evictions++
		return
	}
	c.trim()
}

// purge drops graph's entries of epochs before epoch: a mutation made them
// unreachable.
func (c *resultCache) purge(graph string, epoch uint64) {
	for k, el := range c.entries {
		if k.graph == graph && k.epoch < epoch {
			c.remove(el)
		}
	}
}

func (c *resultCache) trim() {
	for c.bytes > c.budget {
		c.remove(c.lru.Back())
		c.evictions++
	}
}

func (c *resultCache) remove(el *list.Element) {
	ent := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, ent.key)
	c.bytes -= ent.bytes
}
