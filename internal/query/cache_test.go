package query

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oblivjoin/internal/operators"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/session"
	"oblivjoin/internal/table"
)

func testCacheKey(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

var errBoom = errors.New("boom")

func TestSignatureCoversInputDescription(t *testing.T) {
	c := NewCache(testCacheKey(1))
	schema := relation.Schema{Table: "a", Columns: []string{"k", "id"}}
	base := func() string {
		return c.signature(schema, 100, 256, []operators.Pred{{Column: "k", Op: operators.LE, Value: 5}}, []string{"k"}, "RealSize", false)
	}
	sig := base()
	if sig != base() {
		t.Fatal("signature is not deterministic")
	}
	if len(sig) != 64 {
		t.Fatalf("signature %q is %d hex chars, want the full 64-char digest", sig, len(sig))
	}
	variants := []string{
		c.signature(schema, 101, 256, []operators.Pred{{Column: "k", Op: operators.LE, Value: 5}}, []string{"k"}, "RealSize", false),
		c.signature(schema, 100, 512, []operators.Pred{{Column: "k", Op: operators.LE, Value: 5}}, []string{"k"}, "RealSize", false),
		c.signature(schema, 100, 256, []operators.Pred{{Column: "k", Op: operators.LE, Value: 6}}, []string{"k"}, "RealSize", false),
		c.signature(schema, 100, 256, []operators.Pred{{Column: "k", Op: operators.LT, Value: 5}}, []string{"k"}, "RealSize", false),
		c.signature(schema, 100, 256, []operators.Pred{{Column: "k", Op: operators.LE, Value: 5}}, []string{"id", "k"}, "RealSize", false),
		c.signature(schema, 100, 256, []operators.Pred{{Column: "k", Op: operators.LE, Value: 5}}, []string{"k"}, "CartesianProduct", false),
		// Sentinel polarity: the low side of a band join needs different
		// fillers than an equi join over the same filtered table.
		c.signature(schema, 100, 256, []operators.Pred{{Column: "k", Op: operators.LE, Value: 5}}, []string{"k"}, "RealSize", true),
	}
	seen := map[string]bool{sig: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides with an earlier signature", i)
		}
		seen[v] = true
	}
}

// TestSignatureIsKeyed: the signature must be a keyed MAC, not a public
// hash — same description, different client secrets, different signatures —
// so a server that sees the signature in a store name cannot enumerate
// candidate filter constants and confirm them offline.
func TestSignatureIsKeyed(t *testing.T) {
	schema := relation.Schema{Table: "a", Columns: []string{"k"}}
	preds := []operators.Pred{{Column: "k", Op: operators.LE, Value: 30}}
	sig := func(c *Cache) string {
		return c.signature(schema, 100, 256, preds, []string{"k"}, "RealSize", false)
	}
	c1, c2 := NewCache(testCacheKey(1)), NewCache(testCacheKey(2))
	if sig(c1) == sig(c2) {
		t.Fatal("different keys produced the same signature — the MAC is not keyed")
	}
	if sig(c1) != sig(NewCache(testCacheKey(1))) {
		t.Fatal("same key produced different signatures across cache instances")
	}
	// A nil key must still yield a working (random-key) cache.
	r1, r2 := NewCache(nil), NewCache(nil)
	if sig(r1) == sig(r2) {
		t.Fatal("two nil-key caches share a signature — the random key is not random")
	}
	if sig(r1) != sig(r1) {
		t.Fatal("nil-key cache signature is not stable within one cache")
	}
}

func TestCacheStorePrefixIsReserved(t *testing.T) {
	p := cacheStorePrefix("deadbeef01234567", 3)
	if !strings.HasPrefix(p, session.PlanCachePrefix) {
		t.Fatalf("prefix %q does not start with the reserved namespace %q", p, session.PlanCachePrefix)
	}
	// Every store a prepared input provisions must be refused to
	// sessionless/foreign-tenant access by the session layer.
	if !session.Reserved(session.Qualify("tenant", p+"a.data")) {
		t.Fatalf("qualified plan-cache store %q is not in a reserved namespace", session.Qualify("tenant", p+"a.data"))
	}
	// Different builds of the same signature must never share store names.
	if cacheStorePrefix("deadbeef01234567", 4) == p {
		t.Fatal("two builds of one signature share a store prefix")
	}
}

func TestCacheCountsHitsAndMisses(t *testing.T) {
	c := NewCache(testCacheKey(1))
	builds := 0
	get := func() {
		if _, _, err := c.getOrBuild("x", func(buildSlot) (*table.StoredTable, error) {
			builds++
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get()
	get()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 hit, 1 miss", s)
	}
}

// TestCacheBuildsCoalesce: concurrent misses on one signature must run the
// build exactly once — two racing queries would otherwise provision the
// same store names twice, the second clobbering blocks the first may still
// be reading.
func TestCacheBuildsCoalesce(t *testing.T) {
	c := NewCache(testCacheKey(1))
	var builds int32
	started := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.getOrBuild("sig", func(buildSlot) (*table.StoredTable, error) {
			atomic.AddInt32(&builds, 1)
			close(started)
			<-gate
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started // the build is in flight; every caller below must coalesce
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.getOrBuild("sig", func(buildSlot) (*table.StoredTable, error) {
				atomic.AddInt32(&builds, 1)
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
			if !hit {
				t.Error("coalesced caller did not report a cache hit")
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := atomic.LoadInt32(&builds); n != 1 {
		t.Fatalf("build ran %d times under concurrent misses, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 7 {
		t.Fatalf("stats = %+v, want 1 miss and 7 hits", s)
	}
}

// TestCacheFailedBuildRetries: a failed build must not poison the cache.
func TestCacheFailedBuildRetries(t *testing.T) {
	c := NewCache(testCacheKey(1))
	boom := func(buildSlot) (*table.StoredTable, error) { return nil, errBoom }
	if _, _, err := c.getOrBuild("sig", boom); err != errBoom {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed build left %d entries", s.Entries)
	}
	var slot2 buildSlot
	if _, hit, err := c.getOrBuild("sig", func(s buildSlot) (*table.StoredTable, error) {
		slot2 = s
		return nil, nil
	}); err != nil || hit {
		t.Fatalf("retry after failed build: hit=%v err=%v, want a fresh build", hit, err)
	}
	// The retry must get its own slot: the failed build may have uploaded
	// partial state under its prefix.
	if slot2.StorePrefix == cacheStorePrefix("sig", 0) {
		t.Fatal("retry reused the failed build's store prefix")
	}
}

// TestCacheSlotsAreDisjoint: every build — across signatures, and across
// rebuilds of one signature after eviction — must get a disjoint filler
// range and a fresh store prefix.
func TestCacheSlotsAreDisjoint(t *testing.T) {
	c := NewCache(testCacheKey(1))
	c.SetLimit(1)
	var slots []buildSlot
	build := func(sig string) {
		t.Helper()
		if _, hit, err := c.getOrBuild(sig, func(s buildSlot) (*table.StoredTable, error) {
			slots = append(slots, s)
			return nil, nil
		}); err != nil || hit {
			t.Fatalf("build %s: hit=%v err=%v", sig, hit, err)
		}
	}
	build("one")
	build("two") // evicts "one" (limit 1)
	build("one") // rebuild after eviction
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 2 || s.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 entry, 2 evictions, 3 misses", s)
	}
	seenBase := map[int64]bool{}
	seenPrefix := map[string]bool{}
	for i, s := range slots {
		if seenBase[s.FillerBase] {
			t.Errorf("build %d reuses filler base %d", i, s.FillerBase)
		}
		if seenPrefix[s.StorePrefix] {
			t.Errorf("build %d reuses store prefix %q", i, s.StorePrefix)
		}
		seenBase[s.FillerBase], seenPrefix[s.StorePrefix] = true, true
	}
}

// TestCacheEvictsLRU: the bound must drop the least-recently-used entry,
// not the least-recently-built one.
func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(testCacheKey(1))
	c.SetLimit(2)
	noop := func(buildSlot) (*table.StoredTable, error) { return nil, nil }
	mustGet := func(sig string, wantHit bool) {
		t.Helper()
		if _, hit, err := c.getOrBuild(sig, noop); err != nil || hit != wantHit {
			t.Fatalf("%s: hit=%v err=%v, want hit=%v", sig, hit, err, wantHit)
		}
	}
	mustGet("a", false)
	mustGet("b", false)
	mustGet("a", true)  // refresh a: b is now least recently used
	mustGet("c", false) // evicts b
	mustGet("a", true)
	mustGet("b", false) // b was evicted, rebuilds
}
