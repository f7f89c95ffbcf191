package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/dot11"
)

// defaultCacheSize is the Γ-cache entry cap when Config.CacheSize is 0.
const defaultCacheSize = 4096

// keyBufMACs sizes the stack buffer a lookup builds its Γ key in. Window
// Γs are far smaller; a larger Γ's key spills to the heap.
const keyBufMACs = 32

// gammaCache memoizes localization results by canonicalized Γ key.
// Localization is a pure function of (knowledge, Γ); every entry belongs
// to the cache's knowledge generation, and the engine moves the cache to
// a new generation — dropping every entry — whenever the knowledge base
// is swapped, so entries never go stale. Lookups and inserts carry the
// generation the caller read with its knowledge: a lookup from an older
// generation misses, and an estimate computed against an older base is
// not inserted. Failures are cached too — a Γ whose discs leave an empty
// region fails identically (and expensively, through radius inflation)
// every time it recurs.
//
// Eviction is wholesale: when the cap is reached the map is dropped and
// refilled. The working set of distinct Γ keys between knowledge swaps is
// small (devices near each other share keys), so an LRU's bookkeeping
// would cost more than the occasional refill.
type gammaCache struct {
	mu      sync.Mutex
	max     int
	gen     uint64 // knowledge generation every entry was computed against
	entries map[string]cacheEntry
}

type cacheEntry struct {
	est core.Estimate
	err error
}

func newGammaCache(max int) *gammaCache {
	return &gammaCache{max: max, entries: make(map[string]cacheEntry)}
}

// gammaKey appends Γ's cache key to dst and returns it. Γ is already
// deduplicated and MAC-ascending (APSetWindow's documented order), so the
// byte concatenation of its addresses is canonical. Callers pass a stack
// buffer, so building the key allocates nothing.
func gammaKey(dst []byte, gamma []dot11.MAC) []byte {
	for _, m := range gamma {
		dst = append(dst, m[:]...)
	}
	return dst
}

// get looks key up for a caller that read knowledge generation gen. The
// map index converts key without allocating.
func (c *gammaCache) get(key []byte, gen uint64) (core.Estimate, error, bool) {
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	ok = ok && gen == c.gen
	c.mu.Unlock()
	return e.est, e.err, ok
}

// put inserts an entry computed against knowledge generation gen and
// returns how many entries a wholesale refill evicted (0 when the cap was
// not reached). An entry from an older generation than the cache's is
// dropped: its knowledge was swapped out while it was being computed.
func (c *gammaCache) put(key []byte, gen uint64, est core.Estimate, err error) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return 0
	}
	evicted := 0
	if len(c.entries) >= c.max {
		evicted = len(c.entries)
		c.entries = make(map[string]cacheEntry)
	}
	c.entries[string(key)] = cacheEntry{est: est, err: err}
	return evicted
}

// invalidate moves the cache to knowledge generation gen (the knowledge
// base changed), drops every entry and returns how many were dropped.
func (c *gammaCache) invalidate(gen uint64) int {
	c.mu.Lock()
	dropped := len(c.entries)
	c.gen = gen
	c.entries = make(map[string]cacheEntry)
	c.mu.Unlock()
	return dropped
}

// len reports the current entry count (for tests).
func (c *gammaCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
