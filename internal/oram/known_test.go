package oram

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// fetchedLeaves recovers, from the recorded trace of o's store, the leaves
// each download round named — what the server sees. The leaf level is the
// one level every tree keeps on the server, so the reads of one round at or
// past the first leaf's store index are the round's leaves.
func fetchedLeaves(trace []storage.Access, o *PathORAM) [][]uint32 {
	leafBase := o.leaves - 1 - o.skip
	var rounds [][]uint32
	round := int64(-1)
	for _, a := range trace {
		if a.Kind != storage.KindRead || a.Index < leafBase {
			continue
		}
		if a.Round != round {
			round = a.Round
			rounds = append(rounds, nil)
		}
		last := len(rounds) - 1
		rounds[last] = append(rounds[last], uint32(a.Index-leafBase))
	}
	return rounds
}

// diffClient is what the differential test drives: a PathORAM, or one built
// by NewTagged behind the caller's half of its contract (callerHeld).
type diffClient interface {
	Write(key uint64, payload []byte) error
	Update(key uint64, fn func([]byte) error) ([]byte, error)
	Read(key uint64) ([]byte, error)
	DummyAccess() error
	Flush() error
}

// callerHeld is a tree built by NewTagged with the position tags held the
// way its callers hold them: outside the ORAM, handed in with every access
// (Req.Pos) and replaced by a fresh one (Req.NewPos).
type callerHeld struct {
	*PathORAM
	tags map[uint64]uint32
}

// access issues one access through Together, the only way to hand a tree
// its positions. A key the caller holds no tag for fetches a random path, as
// a miss does with a position map; a Put gives it one.
func (c callerHeld) access(key uint64, put []byte, fn func([]byte) error) ([]byte, error) {
	pos, held := c.tags[key]
	if !held {
		pos = c.RandomPos()
	}
	reqs := [1]Req{{ORAM: c.PathORAM, Key: key, Put: put, Update: fn, Pos: pos, NewPos: c.RandomPos()}}
	err := Together(reqs[:])
	if err == nil && (held || put != nil) {
		c.tags[key] = reqs[0].NewPos
	}
	return reqs[0].Data, err
}

func (c callerHeld) Update(key uint64, fn func([]byte) error) ([]byte, error) {
	return c.access(key, nil, fn)
}

func (c callerHeld) Read(key uint64) ([]byte, error) { return c.access(key, nil, nil) }

func (c callerHeld) Write(key uint64, payload []byte) error {
	_, err := c.access(key, payload, nil)
	return err
}

// pinning is a tree whose reads pin their block (Req.Pin), which it holds
// until it has pinned three more, then releases unchanged; it releases every
// block it holds before a Flush.
type pinning struct {
	*PathORAM
	held *[]uint64
}

func (p pinning) Read(key uint64) ([]byte, error) {
	reqs := [1]Req{{ORAM: p.PathORAM, Key: key, Pin: !slices.Contains(*p.held, key)}}
	err := Together(reqs[:])
	if err == nil && reqs[0].Pin {
		*p.held = append(*p.held, key)
		if len(*p.held) > 3 {
			err = p.Release((*p.held)[0], nil)
			*p.held = (*p.held)[1:]
		}
	}
	return reqs[0].Data, err
}

func (p pinning) Flush() error {
	for _, key := range *p.held {
		if err := p.Release(key, nil); err != nil {
			return err
		}
	}
	*p.held = (*p.held)[:0]
	return p.PathORAM.Flush()
}

// TestKnownBucketsDifferential is the data path's end-to-end check: a
// seeded random mix of every operation against a map model, at every
// eviction batch, with a client-side
// and a caller-held position map (the one path NewPathORAM and NewTagged
// share, the latter's positions handed in with each Req), with the accesses
// issued in lockstep with a second tree's (Together), and with reads that pin
// their blocks for a while (pinning). Every result must equal the model;
// after every access, failed ones included, the tree has no more than k
// paths pending; the store's recorded trace must be the one tracecheck.PathORAMSim computes from the
// leaves that trace itself names (so skipping decryption moved no
// server-visible index, and at every batch, 1 included, each write-back
// rides the next download); every downloaded bucket must still be counted in
// BucketsRead, and fewer of them opened. Eviction ranges over a Go map, so
// each run places blocks differently — CI repeats this test.
func TestKnownBucketsDifferential(t *testing.T) {
	const capacity, payload, steps = 64, 16, 800
	for _, batch := range []int{1, 4, 16} {
		for _, positions := range []string{"recursive=false", "positions=caller", "driver=together", "driver=pin"} {
			// Every store exchanges; the legs keep the names they had when
			// stores without exchanges ran beside them.
			name := fmt.Sprintf("k=%d/exchange=true/%s", batch, positions)
			t.Run(name, func(t *testing.T) {
				m := storage.NewMeter()
				cfg := PathConfig{
					Name: "diff", Capacity: capacity, PayloadSize: payload, Meter: m,
					Sealer: testSealer(t), Rand: NewSeededSource(uint64(77 + batch)),
					EvictionBatch: batch,
				}
				// tree is the PathORAM the trace and telemetry checks read;
				// o is what the operations go through.
				var tree *PathORAM
				var o diffClient
				if positions == "positions=caller" {
					h, err := NewTagged(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tree, o = h, callerHeld{h, map[uint64]uint32{}}
				} else {
					p, err := NewPathORAM(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tree, o = p, p
				}
				if positions == "driver=together" {
					// The partner lives in its own store, so the trace
					// filtered by store name below is the tree's alone.
					pcfg := cfg
					pcfg.Name, pcfg.Rand = "diff.partner", NewSeededSource(5)
					partner, err := NewPathORAM(pcfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := partner.BulkLoad(nil); err != nil {
						t.Fatal(err)
					}
					o = paired{tree, partner}
				}
				if positions == "driver=pin" {
					o = pinning{tree, new([]uint64)}
				}
				if err := tree.BulkLoadAt(nil, nil); err != nil { // the empty tree's upload
					t.Fatal(err)
				}
				if err := o.Flush(); err != nil {
					t.Fatal(err)
				}
				built := tree.Telemetry().BucketsRead
				m.Reset()
				m.SetTracing(true)

				// events is the schedule: true a Flush, false an access.
				var events []bool
				ref := map[uint64][]byte{}
				r := mrand.New(mrand.NewSource(int64(batch)))
				check := func(step int, key uint64, data []byte, err error) {
					t.Helper()
					want, ok := ref[key]
					if !ok {
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("step %d: absent key %d: err = %v, want ErrNotFound", step, key, err)
						}
						return
					}
					if err != nil {
						t.Fatalf("step %d key %d: %v", step, key, err)
					}
					if !bytes.Equal(data, want) {
						t.Fatalf("step %d: key %d = %v, want %v", step, key, data, want)
					}
				}
				for step := 0; step < steps; step++ {
					key := uint64(r.Intn(capacity))
					switch r.Intn(8) {
					case 0, 1:
						val := []byte{byte(step), byte(step >> 8), byte(key)}[:1+r.Intn(3)]
						if err := o.Write(key, val); err != nil {
							t.Fatalf("step %d write: %v", step, err)
						}
						ref[key] = append(val, make([]byte, payload-len(val))...)
						events = append(events, false)
					case 2:
						data, err := o.Update(key, func(p []byte) error { p[0]++; return nil })
						if ref[key] != nil {
							ref[key][0]++
						}
						check(step, key, data, err)
						events = append(events, false)
					case 3:
						if err := o.DummyAccess(); err != nil {
							t.Fatalf("step %d dummy: %v", step, err)
						}
						events = append(events, false)
					case 4: // a run of reads of neighbouring keys, misses included
						for d := uint64(0); d <= key%4; d++ {
							k := (key + d) % capacity
							data, err := o.Read(k)
							check(step, k, data, err)
							events = append(events, false)
						}
					case 5: // a run of dummies
						for n := 1 + int(key%4); n > 0; n-- {
							if err := o.DummyAccess(); err != nil {
								t.Fatalf("step %d dummy: %v", step, err)
							}
							events = append(events, false)
						}
					case 6:
						if step%5 != 0 {
							continue // a flush every step would leave nothing deferred
						}
						if err := o.Flush(); err != nil {
							t.Fatalf("step %d flush: %v", step, err)
						}
						events = append(events, true)
					default:
						data, err := o.Read(key)
						check(step, key, data, err)
						events = append(events, false)
					}
					if n := tree.PendingEvictions(); n > batch {
						t.Fatalf("step %d: %d paths pending, more than k = %d", step, n, batch)
					}
					if step%8 == 0 {
						assertFreeListDisjoint(t, tree)
					}
					if p, ok := o.(pinning); ok {
						for _, key := range *p.held {
							if e, in := tree.stash[key]; !in || !e.pinned {
								t.Fatalf("step %d: pinned key %d left the stash", step, key)
							}
						}
					}
				}
				if err := o.Flush(); err != nil {
					t.Fatal(err)
				}
				events = append(events, true)
				trace := m.Trace()
				for key, want := range ref {
					data, err := o.Read(key)
					if err != nil || !bytes.Equal(data, want) {
						t.Fatalf("final read %d = %v, %v; want %v", key, data, err, want)
					}
				}

				var own []storage.Access
				for _, a := range trace {
					if a.Store == tree.cfg.Name {
						own = append(own, a)
					}
				}
				rounds := fetchedLeaves(own, tree)
				sim := &tracecheck.PathORAMSim{
					Store: tree.cfg.Name, Bytes: xcrypto.SealedLen(tree.bucketSize),
					Levels: tree.top + tree.levels, Treetop: tree.top, Batch: batch,
				}
				for _, flush := range events {
					if flush {
						sim.Flush()
						continue
					}
					sim.Access(rounds[0][0])
					rounds = rounds[1:]
				}
				if len(rounds) != 0 {
					t.Fatalf("%d download rounds the schedule does not explain", len(rounds))
				}
				if d := tracecheck.DiffExact(sim.Trace(), own); d != "" {
					t.Fatalf("trace is not the simulator's: %s", d)
				}
				// A tree alone on its meter also takes its rounds where the
				// simulator puts them: a write-back in the round of the next
				// download, or in one of its own at a Flush.
				if positions != "driver=together" {
					if d := tracecheck.Diff(sim.Trace(), own); d != "" {
						t.Fatalf("round boundaries are not the simulator's: %s", d)
					}
				}
				var reads int64
				for _, a := range own {
					if a.Kind == storage.KindRead {
						reads++
					}
				}
				// The final read-back ran after the trace was taken.
				ps := tree.Telemetry()
				if ps.BucketsOpened >= ps.BucketsRead {
					t.Fatalf("opened %d of %d downloaded buckets; nothing was skipped", ps.BucketsOpened, ps.BucketsRead)
				}
				tail := int64(len(ref)) * int64(tree.levels)
				if got := ps.BucketsRead - built; got != reads+tail {
					t.Fatalf("BucketsRead = %d, the server served %d", got, reads+tail)
				}
			})
		}
	}
}

// corrupt flips one ciphertext byte of bucket i on the server.
func corrupt(t *testing.T, st storage.Store, i int64) {
	t.Helper()
	blk, err := st.Read(i)
	if err != nil {
		t.Fatal(err)
	}
	blk[len(blk)/2] ^= 0x20
	if err := st.Write(i, blk); err != nil {
		t.Fatal(err)
	}
}

// TestKnownBucketTamperIsIgnored: the bytes of a bucket the client sealed
// itself and has not let go of are never consumed, so a server that
// corrupts its copy changes nothing and the next write-back overwrites the
// damage; corruption of any bucket the client does decrypt still surfaces
// as ErrAuthFailed naming the store and the bucket.
func TestKnownBucketTamperIsIgnored(t *testing.T) {
	const capacity = 32
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			o := newEvictionORAM(t, capacity, 16, nil, batch, 19)
			for i := uint64(0); i < capacity; i++ {
				if err := o.Write(i, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			// Between accesses at least the path just fetched is pending. Its
			// topmost stored bucket is the one the next download is likeliest
			// to cover (one path in 2^t does), and it stays skipped until the
			// write-back that rewrites it.
			r := mrand.New(mrand.NewSource(3))
			for i := 0; i < 200; i++ {
				corrupt(t, o.store, o.pathNodes(o.sched.pending[0])[0])
				key := uint64(r.Intn(capacity))
				got, err := o.Read(key)
				if err != nil || got[0] != byte(key) {
					t.Fatalf("access %d over a corrupted known bucket: %v, %v", i, got, err)
				}
			}
			// Settled, the client holds nothing back: every bucket is read
			// from the server again, and what it finds there is its own.
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < capacity; i++ {
				if got, err := o.Read(i); err != nil || got[0] != byte(i) {
					t.Fatalf("read %d after the damage was rewritten: %v, %v", i, got, err)
				}
			}

			// Everything the client does not know stays authenticated: spare
			// only the buckets it would skip, and pick a key whose path
			// leaves them.
			if err := o.Write(0, []byte{0}); err != nil {
				t.Fatal(err)
			}
			skipped := append(append([]uint32{}, o.knownLeaves...), o.sched.pending...)
			for i := int64(0); i < o.store.Len(); i++ {
				if !o.onPath(i, skipped) {
					corrupt(t, o.store, i)
				}
			}
			key := uint64(1)
			for o.onPath(o.leaves-1-o.skip+int64(o.pos[key]), skipped) {
				key++
			}
			_, err := o.Read(key)
			if !errors.Is(err, xcrypto.ErrAuthFailed) {
				t.Fatalf("read over a corrupted unknown bucket: err = %v, want ErrAuthFailed", err)
			}
			if !strings.Contains(err.Error(), `"sched"`) || !strings.Contains(err.Error(), "bucket") {
				t.Fatalf("error %q lacks store/bucket context", err)
			}
		})
	}
}

// flakyWriteStore fails every period-th exchange that writes after
// applying the first half of its writes and serving none of its reads: a
// write-back torn by a transport error.
type flakyWriteStore struct {
	*storage.MemStore
	period, calls, failures int
}

func (w *flakyWriteStore) ExchangeTo(dst []byte, idxs []int64, d [][]byte, readIdxs []int64) ([]byte, error) {
	if len(idxs) == 0 {
		return w.MemStore.ExchangeTo(dst, idxs, d, readIdxs)
	}
	if w.calls++; w.calls%w.period != 0 {
		return w.MemStore.ExchangeTo(dst, idxs, d, readIdxs)
	}
	w.failures++
	half := len(idxs) / 2
	if _, err := w.MemStore.ExchangeTo(nil, idxs[:half], d[:half], nil); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("injected write failure")
}

func (w *flakyWriteStore) WriteMany(idxs []int64, d [][]byte) error {
	_, err := w.ExchangeTo(nil, idxs, d, nil)
	return err
}

// TestClassicWriteBackFailureKeepsBlocks: with EvictionBatch <= 1 — every
// download carries the previous path's write-back, in the same exchange —
// a write-back the store refuses must lose
// nothing: the evicted blocks return to the stash, the torn path stays
// queued until a later write-back has rewritten all of it, and the access
// that carried it takes its remap back, so a retried operation succeeds and
// no stale server copy ever resurfaces.
func TestClassicWriteBackFailureKeepsBlocks(t *testing.T) {
	const capacity = 64
	for _, period := range []int{2, 3, 7} {
		t.Run(fmt.Sprintf("every-%d", period), func(t *testing.T) {
			var fs *flakyWriteStore
			o, err := NewPathORAM(PathConfig{
				Name: "flaky", Capacity: capacity, PayloadSize: 16,
				Sealer: testSealer(t), Rand: NewSeededSource(uint64(period)),
				OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
					fs = &flakyWriteStore{MemStore: storage.NewMemStore(name, slots, blockSize, nil), period: period}
					return fs, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			fs.calls, fs.failures = 0, 0 // construction uploads through the same store
			ref := map[uint64]byte{}
			r := mrand.New(mrand.NewSource(int64(period)))
			// retry repeats an operation until the store takes the
			// write-back it carries; every failure must be the injected one.
			retry := func(step int, op func() error) {
				t.Helper()
				for attempt := 0; ; attempt++ {
					err := op()
					if err == nil {
						return
					}
					if attempt == 3 || !strings.Contains(err.Error(), "injected") {
						t.Fatalf("step %d attempt %d: %v", step, attempt, err)
					}
				}
			}
			for step := 0; step < 3000; step++ {
				key := uint64(r.Intn(capacity))
				_, known := ref[key]
				switch op := r.Intn(4); {
				case op == 0 || !known:
					val := byte(step)
					retry(step, func() error { return o.Write(key, []byte{val}) })
					ref[key] = val
				case op == 1:
					retry(step, o.DummyAccess)
				default:
					retry(step, func() error {
						got, err := o.Read(key)
						if got != nil && got[0] != ref[key] {
							t.Fatalf("step %d: key %d = %d, want %d", step, key, got[0], ref[key])
						}
						return err
					})
				}
				assertFreeListDisjoint(t, o)
			}
			if fs.failures == 0 {
				t.Fatal("no write-back failed; the test exercised nothing")
			}
			retry(-1, o.Flush)
			if o.PendingEvictions() != 0 {
				t.Fatalf("%d paths still pending after a clean flush", o.PendingEvictions())
			}
			for key, want := range ref {
				got, err := o.Read(key)
				for err != nil && strings.Contains(err.Error(), "injected") {
					got, err = o.Read(key)
				}
				if err != nil || got[0] != want {
					t.Fatalf("final read %d = %v, %v; want %d", key, got, err, want)
				}
			}
		})
	}
}

// TestKnownSetLifetime pins the set's edges. It lives inside a fetch, from
// the commit of the write-back the fetch carried to the opening of its
// download, so between accesses nothing is known: the last path's blocks
// wait in the stash and ClientBytes counts them there. Flush, Close and
// BulkLoad write nothing the client goes on knowing, so a settled instance
// reports exactly its stash and position map.
func TestKnownSetLifetime(t *testing.T) {
	o := newEvictionORAM(t, 64, 16, nil, 1, 5)
	for i := uint64(0); i < 64; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	perBlock := int64(12 + o.PayloadSize())
	quiet := func() int64 { return int64(o.StashSize())*perBlock + 4*int64(len(o.pos)) }
	for _, settle := range []func() error{o.Flush, o.Close, func() error { return o.BulkLoad(nil) }} {
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
		if len(o.known) != 0 || o.PendingEvictions() != 1 || o.ClientBytes() != quiet() {
			t.Fatalf("between accesses: %d known blocks, %d paths pending, ClientBytes %d with a stash of %d",
				len(o.known), o.PendingEvictions(), o.ClientBytes(), quiet())
		}
		held := len(o.free) + o.StashSize()
		if err := settle(); err != nil {
			t.Fatal(err)
		}
		if len(o.known) != 0 || len(o.knownLeaves) != 0 || o.PendingEvictions() != 0 {
			t.Fatalf("settled instance still knows %d blocks on %d paths, %d pending",
				len(o.known), len(o.knownLeaves), o.PendingEvictions())
		}
		if len(o.free)+o.StashSize() != held {
			t.Fatalf("released buffers: free list %d + stash %d, want %d", len(o.free), o.StashSize(), held)
		}
		if got := o.ClientBytes(); got != quiet() {
			t.Fatalf("settled ClientBytes = %d, want %d", got, quiet())
		}
	}
}

// TestPathORAMDeferredAccessAllocs extends the block-path allocation guard
// to deferred write-backs: a steady-state EvictionBatch=4 access allocates
// what an EvictionBatch=1 access does — the result copy — with the
// write-back's bucket union, eviction staging and known set all living in
// reused scratch.
func TestPathORAMDeferredAccessAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const capacity, payload = 256, 4096
	o := newEvictionORAM(t, capacity, payload, storage.NewMeter(), 4, 3)
	blocks := make([][]byte, capacity)
	for i := range blocks {
		blocks[i] = make([]byte, payload)
	}
	if err := o.BulkLoad(blocks); err != nil {
		t.Fatal(err)
	}
	key := uint64(0)
	read := func() {
		key = (key + 1) % capacity
		if _, err := o.Read(key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*capacity; i++ { // fill the free list and scratch
		read()
	}
	before := o.Telemetry().Exchanges
	n, b := storetest.AllocsAndBytes(500, read)
	if n > 2 || b > payload+payload/2 {
		t.Errorf("steady-state k=4 Read: %v allocs and %d bytes per access, want <= 2 and one %d-byte result copy", n, b, payload)
	}
	if o.Telemetry().Exchanges == before {
		t.Fatal("no write-back rode a fetch; the path went unmeasured")
	}
}
