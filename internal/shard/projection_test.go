package shard

import (
	"fmt"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// driveORAM runs a fixed, seeded Path-ORAM workload: bulk writes, reads,
// dummies, and a final flush — touching the classic path,
// the deferred-eviction scheduler, and the exchange piggyback.
func driveORAM(t *testing.T, open storage.Opener, meter *storage.Meter) {
	t.Helper()
	sealer, err := xcrypto.NewSealer(make([]byte, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name:          "proj.tree",
		Capacity:      64,
		PayloadSize:   24,
		Sealer:        sealer,
		Rand:          oram.NewSeededSource(7),
		Meter:         meter,
		OpenStore:     open,
		EvictionBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 24)
	for k := uint64(0); k < 64; k++ {
		payload[0] = byte(k)
		if err := o.Write(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 64; k += 3 {
		got, err := o.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(k) {
			t.Fatalf("key %d read back %#x", k, got[0])
		}
	}
	for _, k := range []uint64{1, 17, 33, 49} {
		if _, err := o.Read(k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestShardTraceProjection is the tentpole obliviousness check: with the
// same seed, (1) the sharded run's LOGICAL trace is byte-identical to the
// unsharded run's trace — same stores, kinds, global indices, sizes, in
// the same order — and (2) each shard's physical trace is exactly the
// image of the unsharded trace under the public projection
// i ↦ (i mod N, i div N), access for access and in order. The adversary at any shard sees a
// fixed geometric projection of the already-proven single-server trace.
func TestShardTraceProjection(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("%dshards", n), func(t *testing.T) {
			// Reference: single in-process server, traced.
			ref := storage.NewMeter()
			ref.SetTracing(true)
			driveORAM(t, nil, ref)

			// Sharded: router meters the logical trace, each shard's MemStore
			// meters its own physical trace.
			logical := storage.NewMeter()
			logical.SetTracing(true)
			shardMeters := make([]*storage.Meter, n)
			openers := make([]storage.Opener, n)
			for s := 0; s < n; s++ {
				shardMeters[s] = storage.NewMeter()
				shardMeters[s].SetTracing(true)
				m := shardMeters[s]
				openers[s] = func(name string, slots int64, blockSize int) (storage.Store, error) {
					return storage.NewMemStore(name, slots, blockSize, m), nil
				}
			}
			pool, err := NewPool(openers, logical)
			if err != nil {
				t.Fatal(err)
			}
			driveORAM(t, pool.Opener(), nil)

			if d := tracecheck.Diff(ref.Trace(), logical.Trace()); d != "" {
				t.Fatalf("logical sharded trace diverges from the unsharded trace:\n%s", d)
			}

			for s := 0; s < n; s++ {
				var projected []storage.Access
				for _, a := range ref.Trace() {
					if ShardOf(a.Index, n) != s {
						continue
					}
					a.Index = LocalIndex(a.Index, n)
					projected = append(projected, a)
				}
				if d := tracecheck.DiffExact(projected, shardMeters[s].Trace()); d != "" {
					t.Fatalf("shard %d/%d trace is not the geometry projection of the unsharded trace:\n%s", s, n, d)
				}
			}
		})
	}
}
