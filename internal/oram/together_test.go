package oram

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	mrand "math/rand"
	"strings"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/tracecheck"
)

// paired drives a PathORAM's single accesses through Together beside a
// partner tree's dummy access, so the differential test's model, simulator
// and telemetry checks run over the lockstep data path. Writes go to the
// tree alone.
type paired struct {
	*PathORAM
	partner *PathORAM
}

func (p paired) together(r Req) ([]byte, error) {
	reqs := [2]Req{r, {ORAM: p.partner, Dummy: true}}
	err := Together(reqs[:])
	if reqs[1].Err != nil {
		return nil, fmt.Errorf("partner: %w", reqs[1].Err)
	}
	if err != reqs[0].Err {
		return nil, fmt.Errorf("Together returned %v, first request failed with %v", err, reqs[0].Err)
	}
	return reqs[0].Data, reqs[0].Err
}

func (p paired) Read(key uint64) ([]byte, error) {
	return p.together(Req{ORAM: p.PathORAM, Key: key})
}

func (p paired) Update(key uint64, fn func([]byte) error) ([]byte, error) {
	return p.together(Req{ORAM: p.PathORAM, Key: key, Update: fn})
}

func (p paired) DummyAccess() error {
	_, err := p.together(Req{ORAM: p.PathORAM, Dummy: true})
	return err
}

func (p paired) Flush() error {
	if err := p.partner.Flush(); err != nil {
		return err
	}
	return p.PathORAM.Flush()
}

// ownTrace is the part of a trace that touched one store.
func ownTrace(trace []storage.Access, store string) []storage.Access {
	var own []storage.Access
	for _, a := range trace {
		if a.Store == store {
			own = append(own, a)
		}
	}
	return own
}

// togetherOp is one step of the parent-equivalence schedule: what each of
// the two trees does in it.
type togetherOp struct {
	key   [2]uint64
	dummy [2]bool
	bump  [2]bool // through Update, incrementing the first payload byte
}

// runTogetherSchedule builds two trees with their own seeded leaf sources,
// loads them, and performs the schedule — every step's two accesses through
// one Together call, or each on its own — checking results against a model.
// It returns the recorded trace and the rounds the schedule cost.
func runTogetherSchedule(t *testing.T, batch int, exchange, together bool, ops []togetherOp) ([]storage.Access, int64) {
	t.Helper()
	const capacity, payload = 32, 16
	m := storage.NewMeter()
	names := [2]string{"left", "right"}
	var trees [2]*PathORAM
	model := [2][][]byte{}
	for i := range trees {
		o, err := NewPathORAM(PathConfig{
			Name: names[i], Capacity: capacity, PayloadSize: payload, Meter: m,
			Sealer: testSealer(t), Rand: NewSeededSource(uint64(31 + i)), EvictionBatch: batch,
			OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
				st := storage.NewMemStore(name, slots, blockSize, m)
				if exchange {
					return st, nil
				}
				return batchOnlyStore{st}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		model[i] = make([][]byte, capacity)
		for k := range model[i] {
			model[i][k] = bytes.Repeat([]byte{byte(k + 100*i)}, payload)
		}
		if err := o.BulkLoad(model[i]); err != nil {
			t.Fatal(err)
		}
		trees[i] = o
	}
	m.Reset()
	m.SetTracing(true)
	bump := func(p []byte) error { p[0]++; return nil }
	for step, op := range ops {
		var reqs [2]Req
		for i := range reqs {
			reqs[i] = Req{ORAM: trees[i], Key: op.key[i], Dummy: op.dummy[i]}
			if op.bump[i] && !op.dummy[i] {
				reqs[i].Update = bump
				model[i][op.key[i]][0]++
			}
		}
		if together {
			if err := Together(reqs[:]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		} else {
			for i := range reqs {
				if err := Together(reqs[i : i+1]); err != nil {
					t.Fatalf("step %d tree %d: %v", step, i, err)
				}
			}
		}
		for i, r := range reqs {
			if op.dummy[i] {
				if r.Data != nil {
					t.Fatalf("step %d: dummy on tree %d returned data", step, i)
				}
			} else if !bytes.Equal(r.Data, model[i][op.key[i]]) {
				t.Fatalf("step %d tree %d key %d = %v, want %v", step, i, op.key[i], r.Data[:2], model[i][op.key[i]][:2])
			}
		}
	}
	for _, o := range trees {
		if err := o.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return m.Trace(), m.Snapshot().NetworkRounds
}

// TestTogetherMatchesAlone is the parent-equivalence check: two trees
// driven through Together and the same two trees driven one access at a
// time, under the same leaf randomness, show each store exactly the same
// access sequence — lockstep moves no server-visible index, it only groups
// rounds. A step is one round — both trees' downloads, each carrying its
// tree's queued write-back — so n steps and the two closing flushes cost
// n + 2 rounds at every eviction batch, against 2n + 2 one at a time (4n
// over stores without exchanges, where every carried write-back is a
// request of its own).
func TestTogetherMatchesAlone(t *testing.T) {
	r := mrand.New(mrand.NewSource(9))
	ops := make([]togetherOp, 300)
	for i := range ops {
		for side := 0; side < 2; side++ {
			ops[i].key[side] = uint64(r.Intn(32))
			ops[i].dummy[side] = r.Intn(3) == 0
			ops[i].bump[side] = r.Intn(2) == 0
		}
	}
	n := int64(len(ops))
	for _, batch := range []int{1, 4, 16} {
		for _, exchange := range []bool{true, false} {
			t.Run(fmt.Sprintf("k=%d/exchange=%v", batch, exchange), func(t *testing.T) {
				grouped, groupedRounds := runTogetherSchedule(t, batch, exchange, true, ops)
				alone, aloneRounds := runTogetherSchedule(t, batch, exchange, false, ops)
				for _, store := range []string{"left", "right"} {
					if d := tracecheck.DiffExact(ownTrace(grouped, store), ownTrace(alone, store)); d != "" {
						t.Fatalf("store %s sees a different sequence in lockstep: %s", store, d)
					}
				}
				if groupedRounds != n+2 {
					t.Fatalf("lockstep cost %d rounds, want %d", groupedRounds, n+2)
				}
				wantAlone := 2*n + 2
				if !exchange {
					// Per tree: the first download, n-1 (k = 1) downloads
					// preceded by a write request, the closing flush.
					wantAlone = 2 * (n + (n-1)/int64(batch) + 1)
				}
				if aloneRounds != wantAlone {
					t.Fatalf("one at a time cost %d rounds, want %d", aloneRounds, wantAlone)
				}
				// Round i of the lockstep run is step i: left's share — the
				// write-back it carries, then its download — then right's.
				var shape []string
				round := int64(-1)
				check := func() {
					if round < 0 || round >= n {
						return // the closing flushes
					}
					got := strings.Join(shape, " ")
					var want []string
					for _, store := range []string{"left", "right"} {
						if round > 0 && round%int64(batch) == 0 {
							want = append(want, store+"/write")
						}
						want = append(want, store+"/read")
					}
					if got != strings.Join(want, " ") {
						t.Fatalf("round %d is %q, want %q", round, got, strings.Join(want, " "))
					}
				}
				first := grouped[0].Round
				for _, a := range grouped {
					if a.Round-first != round {
						check()
						round, shape = a.Round-first, shape[:0]
					}
					if op := a.Store + "/" + a.Kind.String(); len(shape) == 0 || shape[len(shape)-1] != op {
						shape = append(shape, op)
					}
				}
			})
		}
	}
}

// failOnce is a store that refuses one chosen batch call — applying half of
// a write first, as a transport failure might — and serves every other.
type failOnce struct {
	*storage.MemStore
	failRead, failWrite bool
}

func (f *failOnce) ExchangeTo(dst []byte, wi []int64, wd [][]byte, ri []int64) ([]byte, error) {
	switch {
	case f.failRead && len(ri) > 0:
		f.failRead = false
		return nil, errors.New("injected read failure")
	case f.failWrite && len(wi) > 0:
		f.failWrite = false
		half := len(wi) / 2
		if err := f.MemStore.WriteMany(wi[:half], wd[:half]); err != nil {
			return nil, err
		}
		return nil, errors.New("injected write failure")
	}
	return f.MemStore.ExchangeTo(dst, wi, wd, ri)
}

func (f *failOnce) Exchange(wi []int64, wd [][]byte, ri []int64) ([][]byte, error) {
	flat, err := f.ExchangeTo(nil, wi, wd, ri)
	return storage.Carve(flat, f.BlockSize()), err
}

func (f *failOnce) ReadManyTo(dst []byte, idxs []int64) ([]byte, error) {
	return f.ExchangeTo(dst, nil, nil, idxs)
}

func (f *failOnce) ReadMany(idxs []int64) ([][]byte, error) { return f.Exchange(nil, nil, idxs) }

func (f *failOnce) WriteMany(idxs []int64, d [][]byte) error {
	_, err := f.ExchangeTo(nil, idxs, d, nil)
	return err
}

// TestTogetherShareFailure: when one store fails its share of a round the
// other tree's access has completed, and the failed tree is left as a failed
// access leaves it — stash authoritative, paths pending, the planned remap
// taken back — so the same access retried brings it to the model's state.
// The share is failed on its download and on the write-back it carries
// (half applied), under real accesses, at every eviction batch. At k = 1
// the write-back rides every download, so a refused write-back leaves the
// operation undone: the model advances when the retry succeeds.
func TestTogetherShareFailure(t *testing.T) {
	const capacity, payload = 32, 16
	for _, batch := range []int{1, 4, 16} {
		for _, stage := range []string{"download", "write-back"} {
			t.Run(fmt.Sprintf("k=%d/%s", batch, stage), func(t *testing.T) {
				m := storage.NewMeter()
				var flaky *failOnce
				var trees [2]*PathORAM
				for i := range trees {
					o, err := NewPathORAM(PathConfig{
						Name: fmt.Sprint("t", i), Capacity: capacity, PayloadSize: payload, Meter: m,
						Sealer: testSealer(t), Rand: NewSeededSource(uint64(5 + i)), EvictionBatch: batch,
						OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
							st := storage.NewMemStore(name, slots, blockSize, m)
							if i == 0 {
								return st, nil
							}
							flaky = &failOnce{MemStore: st}
							return flaky, nil
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					blocks := make([][]byte, capacity)
					for k := range blocks {
						blocks[k] = bytes.Repeat([]byte{byte(k)}, payload)
					}
					if err := o.BulkLoad(blocks); err != nil {
						t.Fatal(err)
					}
					trees[i] = o
				}
				bump := func(p []byte) error { p[0] += 100; return nil }
				r := mrand.New(mrand.NewSource(int64(batch)))
				want := [2]map[uint64]byte{{}, {}}
				injected := 0
				for step := 0; step < 300; step++ {
					keys := [2]uint64{uint64(r.Intn(capacity)), uint64(r.Intn(capacity))}
					reqs := []Req{
						{ORAM: trees[0], Key: keys[0], Update: bump},
						{ORAM: trees[1], Key: keys[1], Update: bump},
					}
					inject := step%7 == 3
					if inject {
						flaky.failRead, flaky.failWrite = stage == "download", stage == "write-back"
					}
					pending := trees[1].PendingEvictions()
					err := Together(reqs)
					if reqs[0].Err != nil {
						t.Fatalf("step %d: the healthy tree failed: %v", step, reqs[0].Err)
					}
					want[0][keys[0]] += 100
					if got := reqs[0].Data[0]; got != byte(keys[0])+want[0][keys[0]] {
						t.Fatalf("step %d: healthy tree key %d = %d", step, keys[0], got)
					}
					// With k > 1 not every download carries a write-back to refuse.
					consumed := inject && !flaky.failRead && !flaky.failWrite
					flaky.failRead, flaky.failWrite = false, false
					if consumed {
						injected++
						if err == nil || err != reqs[1].Err || !strings.Contains(err.Error(), "injected") {
							t.Fatalf("step %d: err = %v, share err = %v; want the injected failure", step, err, reqs[1].Err)
						}
						if trees[1].PendingEvictions() != pending {
							t.Fatalf("step %d: the failed share left %d paths pending, %d before it", step, trees[1].PendingEvictions(), pending)
						}
						assertFreeListDisjoint(t, trees[1])
						// The same access, retried on its own.
						reqs[1].Data, reqs[1].Err = trees[1].Update(keys[1], bump)
						if reqs[1].Err != nil {
							t.Fatalf("step %d: retry after the failure: %v", step, reqs[1].Err)
						}
					} else if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					want[1][keys[1]] += 100
					if got := reqs[1].Data[0]; got != byte(keys[1])+want[1][keys[1]] {
						t.Fatalf("step %d: flaky tree key %d = %d, want %d", step, keys[1], got, byte(keys[1])+want[1][keys[1]])
					}
				}
				if injected == 0 {
					t.Fatal("no share failed; the test exercised nothing")
				}
				for i, o := range trees {
					if err := o.Flush(); err != nil {
						t.Fatalf("tree %d flush: %v", i, err)
					}
					if o.PendingEvictions() != 0 {
						t.Fatalf("tree %d: %d paths pending after a clean flush", i, o.PendingEvictions())
					}
					for k := uint64(0); k < capacity; k++ {
						got, err := o.Read(k)
						if err != nil || got[0] != byte(k)+want[i][k] || got[1] != byte(k) {
							t.Fatalf("tree %d key %d = %v, %v; want first byte %d", i, k, got[:2], err, byte(k)+want[i][k])
						}
					}
				}
			})
		}
	}
}

// TestTogetherFallsBackOneByOne: groups that are not distinct Path-ORAMs on
// one meter — views of one shared tree, a tree on a meter of its own, the
// raw store, the same tree twice — run their accesses one after another,
// moving exactly the blocks and rounds of separate calls, in the same order.
func TestTogetherFallsBackOneByOne(t *testing.T) {
	const capacity, payload = 16, 16
	build := map[string]func(m *storage.Meter) [2]ORAM{
		"views": func(m *storage.Meter) [2]ORAM {
			base := newEvictionORAM(t, 2*capacity, payload, m, 1, 3)
			a, err := NewView(base, 0, capacity)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewView(base, capacity, capacity)
			if err != nil {
				t.Fatal(err)
			}
			return [2]ORAM{a, b}
		},
		"own-meter": func(m *storage.Meter) [2]ORAM {
			// The second tree rounds on a meter of its own, but its store
			// records on m: a round the two shared would show in m's trace.
			var out [2]ORAM
			for i := range out {
				cfg := PathConfig{
					Name: fmt.Sprint("own", i), Capacity: capacity, PayloadSize: payload, Meter: m,
					Sealer: testSealer(t), Rand: NewSeededSource(uint64(i + 1)),
				}
				if i == 1 {
					cfg.Meter = storage.NewMeter()
					cfg.OpenStore = func(name string, slots int64, blockSize int) (storage.Store, error) {
						return storage.NewMemStore(name, slots, blockSize, m), nil
					}
				}
				o, err := NewPathORAM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = o
			}
			return out
		},
		"raw": func(m *storage.Meter) [2]ORAM {
			var out [2]ORAM
			for i := range out {
				o, err := NewRawStore(fmt.Sprint("raw", i), capacity, payload, m, NewSeededSource(1))
				if err != nil {
					t.Fatal(err)
				}
				out[i] = o
			}
			return out
		},
		"same-block": func(m *storage.Meter) [2]ORAM {
			o := newEvictionORAM(t, capacity, payload, m, 1, 3)
			return [2]ORAM{o, o}
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			run := func(together bool) ([]storage.Access, storage.Stats) {
				m := storage.NewMeter()
				orams := mk(m)
				for _, o := range orams {
					for k := uint64(0); k < capacity; k++ {
						if err := o.Write(k, []byte{byte(k)}); err != nil {
							t.Fatal(err)
						}
					}
				}
				m.Reset()
				m.SetTracing(true)
				for k := uint64(0); k < capacity; k++ {
					reqs := []Req{{ORAM: orams[0], Key: k}, {ORAM: orams[1], Dummy: k%2 == 0, Key: capacity - 1 - k}}
					if name == "same-block" { // one tree, one block: a dummy would name none
						reqs[1].Dummy, reqs[1].Key = false, k
					}
					if together {
						if err := Together(reqs); err != nil {
							t.Fatal(err)
						}
						if reqs[0].Data[0] != byte(k) {
							t.Fatalf("key %d = %d", k, reqs[0].Data[0])
						}
						continue
					}
					if _, err := orams[0].Read(k); err != nil {
						t.Fatal(err)
					}
					var err error
					if reqs[1].Dummy {
						err = orams[1].DummyAccess()
					} else {
						_, err = orams[1].Read(reqs[1].Key)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				return m.Trace(), m.Snapshot()
			}
			grouped, groupedStats := run(true)
			separate, separateStats := run(false)
			if groupedStats != separateStats {
				t.Fatalf("Together moved %v, separate calls %v", groupedStats, separateStats)
			}
			if d := tracecheck.Diff(grouped, separate); d != "" {
				t.Fatalf("Together is not the separate calls: %s", d)
			}
		})
	}
}

// TestTogetherTwoPathsOneTree: two requests on one tree, through one handle
// and for distinct blocks (or a dummy), share the tree's round — a
// descent's access beside the next descent's root, read ahead. The share
// downloads both paths in full, in request order, and the operations apply
// in that order, so the data is the model's. Under the leaf randomness of
// the same accesses issued one at a time the store reads the same buckets
// in the same order, and at k = 1 writes each bucket as often; the trace is
// PathORAMSim's replay of the rounds, from the leaves the downloads name,
// round ordinals included: at k = 1 a round's write-back writes both paths
// in full, a bucket they share twice.
func TestTogetherTwoPathsOneTree(t *testing.T) {
	const capacity, payload, rounds = 32, 16, 60
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			run := func(together bool) (*PathORAM, []storage.Access) {
				m := storage.NewMeter()
				o := newEvictionORAM(t, capacity, payload, m, k, 5)
				model := make([][]byte, capacity)
				for key := range model {
					model[key] = bytes.Repeat([]byte{byte(key)}, payload)
				}
				if err := o.BulkLoad(model); err != nil {
					t.Fatal(err)
				}
				m.SetTracing(true)
				rng := mrand.New(mrand.NewSource(11))
				bump := func(p []byte) error { p[0]++; return nil }
				for i := 0; i < rounds; i++ {
					a := uint64(rng.Intn(capacity))
					b := (a + 1 + uint64(rng.Intn(capacity-1))) % capacity
					reqs := []Req{{ORAM: o, Key: a, Dummy: i%5 == 4}, {ORAM: o, Key: b, Update: bump}}
					model[b][0]++
					if together {
						if err := Together(reqs); err != nil {
							t.Fatalf("round %d: %v", i, err)
						}
					} else {
						for j := range reqs {
							if err := Together(reqs[j : j+1]); err != nil {
								t.Fatalf("round %d, request %d: %v", i, j, err)
							}
						}
					}
					if !reqs[0].Dummy && !bytes.Equal(reqs[0].Data, model[a]) {
						t.Fatalf("round %d: key %d = %v, want %v", i, a, reqs[0].Data[:2], model[a][:2])
					}
					if !bytes.Equal(reqs[1].Data, model[b]) {
						t.Fatalf("round %d: key %d = %v, want %v", i, b, reqs[1].Data[:2], model[b][:2])
					}
				}
				if err := o.Flush(); err != nil {
					t.Fatal(err)
				}
				trace := m.Trace()
				m.SetTracing(false)
				for key := range model {
					if got, err := o.Read(uint64(key)); err != nil || !bytes.Equal(got, model[key]) {
						t.Fatalf("key %d = %v (%v) after the rounds, want %v", key, got[:2], err, model[key][:2])
					}
				}
				return o, trace
			}
			o, shared := run(true)
			_, apart := run(false)
			if got := shared[len(shared)-1].Round; got != rounds+1 {
				t.Fatalf("%d rounds of two requests and a flush took %d rounds, want %d", rounds, got, rounds+1)
			}
			kinds := func(trace []storage.Access, kind storage.AccessKind) []storage.Access {
				var out []storage.Access
				for _, a := range trace {
					if a.Kind == kind {
						out = append(out, a)
					}
				}
				return out
			}
			if d := tracecheck.DiffExact(kinds(shared, storage.KindRead), kinds(apart, storage.KindRead)); d != "" {
				t.Fatalf("the shared rounds read other buckets: %s", d)
			}
			if k == 1 {
				count := func(trace []storage.Access) map[int64]int {
					n := map[int64]int{}
					for _, a := range kinds(trace, storage.KindWrite) {
						n[a.Index]++
					}
					return n
				}
				if got, want := count(shared), count(apart); !maps.Equal(got, want) {
					t.Fatalf("the shared rounds write buckets %v times, one at a time %v", got, want)
				}
			}

			// Replay the rounds from the leaves their downloads name.
			levels, top := o.Levels(), o.Telemetry().TreetopLevels
			leafBase := int64(1)<<(top+levels-1) - int64(1)<<top
			sim := &tracecheck.PathORAMSim{Store: shared[0].Store, Bytes: shared[0].Bytes, Levels: top + levels, Treetop: top, Batch: k, Exchange: true}
			for r := int64(1); r <= rounds; r++ {
				var leaves []uint32
				for _, a := range shared {
					if a.Round == r && a.Kind == storage.KindRead && a.Index >= leafBase {
						leaves = append(leaves, uint32(a.Index-leafBase))
					}
				}
				if len(leaves) != 2 {
					t.Fatalf("round %d downloaded %d paths, want 2", r, len(leaves))
				}
				sim.Round(leaves...)
			}
			sim.Flush()
			if d := tracecheck.Diff(sim.Trace(), shared); d != "" {
				t.Fatalf("the shared rounds are not PathORAMSim's: %s", d)
			}
			if d := tracecheck.DiffExact(sim.Trace(), shared); d != "" {
				t.Fatalf("the shared rounds are not PathORAMSim's: %s", d)
			}
		})
	}
}

// TestSettleTogetherIsOneRound: Settle writes back what the given trees
// still have queued in one round, shares in the order the trees were given;
// a tree with nothing queued has no share, a tree listed twice has one, and
// a tree that cannot share the round — one on a meter of its own — is
// flushed where it stands, in a round of its own. Afterwards nothing is
// pending and nothing known anywhere, and the data is all there. A share
// that fails fails alone: the other trees are settled, the failed one keeps
// its paths pending and its blocks, and settles when retried.
func TestSettleTogetherIsOneRound(t *testing.T) {
	const capacity, payload = 16, 16
	for _, k := range []int{1, 4} {
		m := storage.NewMeter()
		var flaky *failOnce
		tree := func(name string, meter *storage.Meter) *PathORAM {
			// Every store records on m, whatever meter its tree rounds on.
			o, err := NewPathORAM(PathConfig{
				Name: name, Capacity: capacity, PayloadSize: payload, Meter: meter, Sealer: testSealer(t),
				Rand: NewSeededSource(uint64(len(name))), EvictionBatch: k,
				OpenStore: func(store string, slots int64, blockSize int) (storage.Store, error) {
					st := storage.NewMemStore(store, slots, blockSize, m)
					if store != "c" {
						return st, nil
					}
					flaky = &failOnce{MemStore: st}
					return flaky, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
		a, b, c, idle, own := tree("a", m), tree("bb", m), tree("c", m), tree("idle", m), tree("own", storage.NewMeter())
		touched := []*PathORAM{a, b, c, own}
		for _, o := range touched {
			for key := uint64(0); key < capacity; key++ {
				if err := o.Write(key, []byte{byte(key)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Reset()
		m.SetTracing(true)
		flaky.failWrite = true
		err := Settle(b, a, idle, own, c, a)
		if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("k=%d: Settle = %v, want the injected failure of c's share", k, err)
		}
		if a.PendingEvictions() != 0 || b.PendingEvictions() != 0 || own.PendingEvictions() != 0 || c.PendingEvictions() == 0 {
			t.Fatalf("k=%d: pending after the failed settle: a %d, b %d, own %d, c %d; want only c's kept",
				k, a.PendingEvictions(), b.PendingEvictions(), own.PendingEvictions(), c.PendingEvictions())
		}
		// own flushed alone, then the shared round.
		var order []string
		rounds := map[int64][]string{}
		for _, x := range m.Trace() {
			if x.Kind != storage.KindWrite {
				t.Fatalf("k=%d: settle read %s", k, x.Store)
			}
			if r := rounds[x.Round]; len(r) == 0 || r[len(r)-1] != x.Store {
				if len(r) == 0 {
					order = append(order, "|")
				}
				rounds[x.Round] = append(r, x.Store)
				order = append(order, x.Store)
			}
		}
		if got, want := strings.Join(order, " "), "| own | bb a c"; got != want {
			t.Fatalf("k=%d: settle rounds carried %q, want %q", k, got, want)
		}
		if got := m.Snapshot().NetworkRounds; got != 2 {
			t.Fatalf("k=%d: %d rounds, want 2", k, got)
		}
		before := m.Snapshot().NetworkRounds
		if err := Settle(b, a, idle, own, c, a); err != nil {
			t.Fatalf("k=%d: retried settle: %v", k, err)
		}
		if got := m.Snapshot().NetworkRounds - before; got != 1 || c.PendingEvictions() != 0 {
			t.Fatalf("k=%d: the retry took %d rounds and left c %d paths pending; want c's share alone", k, got, c.PendingEvictions())
		}
		before = m.Snapshot().NetworkRounds
		if err := Settle(b, a, idle, own, c, a); err != nil || m.Snapshot().NetworkRounds != before {
			t.Fatalf("k=%d: settling settled trees: %v, %d rounds", k, err, m.Snapshot().NetworkRounds-before)
		}
		for _, o := range []*PathORAM{a, b, c, idle, own} {
			if len(o.known) != 0 || len(o.knownLeaves) != 0 {
				t.Fatalf("k=%d: %s still knows %d blocks", k, o.cfg.Name, len(o.known))
			}
		}
		for _, o := range touched {
			for key := uint64(0); key < capacity; key++ {
				if got, err := o.Read(key); err != nil || got[0] != byte(key) {
					t.Fatalf("k=%d: key %d = %v, %v after settling", k, key, got, err)
				}
			}
		}
	}
}

// TestTogetherAllocs is the allocation guard for the lockstep path: two
// steady-state accesses through Together allocate no more than the same two
// accesses made alone (their result copies).
func TestTogetherAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const capacity, payload = 256, 4096
	m := storage.NewMeter()
	var trees [2]*PathORAM
	for i := range trees {
		o, err := NewPathORAM(PathConfig{
			Name: fmt.Sprint("allocs", i), Capacity: capacity, PayloadSize: payload, Meter: m,
			Sealer: testSealer(t), Rand: NewSeededSource(uint64(3 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([][]byte, capacity)
		for k := range blocks {
			blocks[k] = make([]byte, payload)
		}
		if err := o.BulkLoad(blocks); err != nil {
			t.Fatal(err)
		}
		trees[i] = o
	}
	key := uint64(0)
	reqs := make([]Req, 2)
	pair := func() {
		key = (key + 1) % capacity
		reqs[0] = Req{ORAM: trees[0], Key: key}
		reqs[1] = Req{ORAM: trees[1], Dummy: true}
		if err := Together(reqs); err != nil {
			t.Fatal(err)
		}
	}
	alone := func() {
		key = (key + 1) % capacity
		if _, err := trees[0].Read(key); err != nil {
			t.Fatal(err)
		}
		if err := trees[1].DummyAccess(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*capacity; i++ { // fill the free lists and scratch
		pair()
		alone()
	}
	aloneN, aloneB := storetest.AllocsAndBytes(500, alone)
	pairN, pairB := storetest.AllocsAndBytes(500, pair)
	t.Logf("two accesses alone: %v allocs, %d bytes; through Together: %v allocs, %d bytes", aloneN, aloneB, pairN, pairB)
	if pairN > aloneN || pairB > aloneB+payload/8 {
		t.Errorf("Together of two accesses: %v allocs and %d bytes, alone %v and %d", pairN, pairB, aloneN, aloneB)
	}
	if pairN > 3 || pairB > payload+payload/2 {
		t.Errorf("Together of a read and a dummy: %v allocs and %d bytes, want <= 3 and one %d-byte result copy", pairN, pairB, payload)
	}
}
