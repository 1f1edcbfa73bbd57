package query

import (
	"container/list"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"oblivjoin/internal/operators"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/session"
	"oblivjoin/internal/table"
)

// DefaultMaxEntries is the plan cache's default entry cap. Each entry
// retains a full prepared input client-side (plaintext relation, ORAM
// stash, and position-map state), so the cache is bounded: past the cap
// the least-recently-used entry is dropped. See Cache for what eviction
// releases and what it leaves behind.
const DefaultMaxEntries = 64

// Cache holds prepared join inputs — filtered, padded, re-indexed copies of
// base tables — keyed by a keyed-MAC signature of the public input
// description. A hit hands the second query in a session the already
// sorted-and-indexed intermediate, skipping the oblivious filter, its
// compaction, and the ORAM re-upload entirely (the dominant costs
// Shafieinejad et al. amortize across query series).
//
// Invalidation: a signature covers the table name, its row count, its
// schema, the block payload, the filter conjunction, the index inventory,
// the padding policy, and the sentinel polarity the query's join kind
// requires of the entry's filler tuples. Base tables are immutable after
// Seal in this system, so an entry can only go stale by the database being
// re-sealed — which builds a fresh Cache.
//
// Concurrency: lookups that miss coalesce singleflight-style — one caller
// builds while every concurrent caller for the same signature waits for
// that build — so two racing queries never provision the same prepared
// input twice or clobber each other's server-side blocks.
//
// Bounding and eviction: the cache keeps at most its entry limit
// (DefaultMaxEntries unless SetLimit overrides it), evicting
// least-recently-used entries. Eviction drops the client-side state; the
// evicted entry's server-side blocks become unreferenced garbage under its
// unique store prefix. Because every build — including a rebuild of an
// evicted signature — provisions stores under a fresh prefix, an evicted
// prepared table still held by an in-flight query keeps reading valid
// blocks, and rebuilds never overwrite a predecessor's stores. Server-side,
// all prefixes live under the reserved session.PlanCachePrefix namespace,
// tenant-qualified by the session layer so two tenants' caches can never
// collide (session.Qualify); unreferenced prefixes can be garbage-collected
// out of band.
type Cache struct {
	mu      sync.Mutex
	key     []byte
	entries map[string]*cacheEntry
	lru     *list.List // of signature strings; front = most recent
	limit   int
	seq     int64 // next build number: filler range + store-prefix uniquifier
	hits    int64
	misses  int64
	evicted int64
}

// cacheEntry is one prepared input, possibly still building. ready is
// closed when the build finishes; st/err are immutable afterwards.
type cacheEntry struct {
	st    *table.StoredTable
	err   error
	done  bool
	ready chan struct{}
	elem  *list.Element
}

// NewCache returns an empty plan cache whose signatures are MACed under
// key. The key must be a client secret (e.g. an HKDF subkey of the
// database keyring): signatures name the prepared inputs' server-visible
// stores, and keying the MAC is what stops an honest-but-curious server
// from brute-forcing filter constants offline against the names it sees.
// A nil or empty key derives a random one — signatures then stay stable
// for this cache's lifetime but differ across restarts.
func NewCache(key []byte) *Cache {
	if len(key) == 0 {
		key = make([]byte, sha256.Size)
		if _, err := rand.Read(key); err != nil {
			panic(fmt.Sprintf("query: reading random cache key: %v", err))
		}
	} else {
		key = append([]byte(nil), key...)
	}
	return &Cache{
		key:     key,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
		limit:   DefaultMaxEntries,
	}
}

// SetLimit caps the cache at n entries, evicting least-recently-used
// entries immediately if it already holds more; n <= 0 removes the bound.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictLocked()
}

// CacheStats is a point-in-time cache summary.
type CacheStats struct {
	// Entries is the number of cached prepared inputs.
	Entries int
	// Hits and Misses count lookups since the cache was created.
	Hits, Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
}

// Stats returns the cache summary.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses, Evictions: c.evicted}
}

// buildSlot carries the per-build allocations a prepared input needs: a
// sentinel filler key range disjoint from every other build's, and a
// store-name prefix no other build (including a rebuild of the same
// signature after eviction) ever reuses.
type buildSlot struct {
	// FillerBase offsets this build's sentinel filler keys within the
	// reserved extreme of the key domain; successive builds get bases
	// fillerRangeSize apart, so fillers from different prepared inputs can
	// never equi-join with each other regardless of which queries' inputs
	// — cached or fresh — end up joined together.
	FillerBase int64
	// StorePrefix is the reserved-namespace prefix the build provisions
	// its ORAM stores under.
	StorePrefix string
}

// getOrBuild returns the prepared input for sig, building it with build on
// the first request. Concurrent callers for the same signature coalesce:
// exactly one runs build, the rest wait for its result. The bool reports
// whether the table came from the cache (true) or this call's build
// (false). A failed build is not cached; the next caller retries.
func (c *Cache) getOrBuild(sig string, build func(buildSlot) (*table.StoredTable, error)) (*table.StoredTable, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[sig]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		return e.st, true, nil
	}
	c.misses++
	seq := c.seq
	if (seq+1)*fillerRangeSize > fillerHeadroom {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("query: plan cache exhausted its %d sentinel filler ranges", fillerHeadroom/fillerRangeSize)
	}
	c.seq++
	e := &cacheEntry{ready: make(chan struct{})}
	e.elem = c.lru.PushFront(sig)
	c.entries[sig] = e
	c.mu.Unlock()

	st, err := build(buildSlot{
		FillerBase:  seq * fillerRangeSize,
		StorePrefix: cacheStorePrefix(sig, seq),
	})

	c.mu.Lock()
	e.st, e.err, e.done = st, err, true
	if err != nil {
		c.lru.Remove(e.elem)
		delete(c.entries, sig)
	} else {
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return st, false, err
}

// evictLocked trims the LRU tail down to the entry limit, skipping builds
// still in flight. Callers hold c.mu.
func (c *Cache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && c.lru.Len() > c.limit; {
		prev := el.Prev()
		sig := el.Value.(string)
		if e := c.entries[sig]; e != nil && e.done {
			c.lru.Remove(el)
			delete(c.entries, sig)
			c.evicted++
		}
		el = prev
	}
}

// signature derives the cache key for a prepared input: an HMAC-SHA256,
// under the cache's client-secret key, of the canonical public input
// description — including which extreme of the key domain the input's
// sentinel fillers must occupy (sentinelLow), since a band join's low side
// needs different fillers than an equi join over the same filtered table.
// The full 32-byte tag (not the description) also names the intermediate's
// stores, so the server learns only which cached input a query reuses —
// the reuse pattern a cache hit already reveals by skipping the build
// traffic. Keying the MAC keeps the filter constants un-brute-forceable
// from those names, and the full-length tag makes an accidental collision
// between two distinct descriptions cryptographically negligible.
func (c *Cache) signature(schema relation.Schema, baseRows, blockPayload int, filters []operators.Pred, indexAttrs []string, padding string, sentinelLow bool) string {
	var b strings.Builder
	sent := "high"
	if sentinelLow {
		sent = "low"
	}
	fmt.Fprintf(&b, "t=%s|n=%d|bp=%d|cols=%s|pad=%s|idx=%s|sent=%s|f=",
		schema.Table, baseRows, blockPayload, strings.Join(schema.Columns, ","),
		padding, strings.Join(indexAttrs, ","), sent)
	for _, p := range filters {
		fmt.Fprintf(&b, "%s%s%d;", p.Column, p.Op, p.Value)
	}
	mac := hmac.New(sha256.New, c.key)
	mac.Write([]byte(b.String()))
	return hex.EncodeToString(mac.Sum(nil))
}

// cacheStorePrefix is the store-name prefix build number seq of signature
// sig provisions its ORAMs under: the reserved plan-cache namespace, the
// signature, then the build number — unique per build so a rebuild after
// eviction can never clobber blocks an earlier build's holders still read.
func cacheStorePrefix(sig string, seq int64) string {
	return session.PlanCachePrefix + sig + "." + strconv.FormatInt(seq, 10) + "/"
}
