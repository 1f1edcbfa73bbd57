package obliv

import (
	"fmt"
	mrand "math/rand"
	"testing"
)

// benchRecords builds n random 16-byte records with a fixed seed.
func benchRecords(n int) [][]byte {
	r := mrand.New(mrand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		rec := make([]byte, 16)
		copy(rec, u64rec(r.Uint64()))
		out[i] = rec
	}
	return out
}

// BenchmarkBitonicSort measures the in-memory bitonic sort. The network is
// data-independent, so each iteration re-sorts the (now sorted) slice at
// identical cost.
func BenchmarkBitonicSort(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		items := benchRecords(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 16))
			for i := 0; i < b.N; i++ {
				if err := SortSlice(items, lessU64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtSort measures the external oblivious sort over an encrypted
// BlockVector: chunk-local sorts plus bitonic merge-splits. Cost is
// data-independent, so the vector is built once and re-sorted each
// iteration.
func BenchmarkExtSort(b *testing.B) {
	const n, mem = 1 << 12, 256
	v := newTestBlockVector(b, n+mem, 16, 512, nil)
	r := mrand.New(mrand.NewSource(2))
	padded, _ := ChunkShape(n, mem)
	for i := 0; i < n; i++ {
		rec := make([]byte, 16)
		copy(rec, u64rec(r.Uint64()>>1))
		if err := v.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	pad := make([]byte, 16)
	copy(pad, u64rec(^uint64(0)))
	if err := v.PadTo(padded, pad); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := SortVector(v, mem, lessU64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
