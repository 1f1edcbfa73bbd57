package core

import (
	"testing"

	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// TestOutputWriterAllocs is the allocation guard of a join's output: a
// record, real or dummy, is encoded into the writer's one record buffer and
// copied into the buffer of the block being appended to, so what a block's
// worth of records allocates is what sealing and holding the block does,
// however many records it packs.
func TestOutputWriterAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a := relation.Schema{Table: "a", Columns: []string{"id", "k"}}
	b := relation.Schema{Table: "b", Columns: []string{"k", "v"}}
	for _, blockSize := range []int{256, 4096 + 32} {
		opts := testJoinOpts(t, storage.NewMeter())
		opts.OutBlockSize = blockSize
		w, err := newOutWriter("out", opts, false, a, b)
		if err != nil {
			t.Fatal(err)
		}
		ta := relation.Tuple{Values: []int64{1, 2}}
		tb := relation.Tuple{Values: []int64{2, 3}}
		perBlock := w.vec.RecordsPerBlock()
		block := func() {
			for i := 0; i < perBlock; i++ {
				var err error
				if i%3 == 0 {
					err = w.putDummy()
				} else {
					err = w.putJoin(ta, tb)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 64; i++ { // grow the store past the measured blocks' doublings
			block()
		}
		got := testing.AllocsPerRun(20, block)
		if got > 1 {
			t.Errorf("%d-byte blocks: a block of %d records allocates %.1f, want the sealed bytes alone (<= 1)", blockSize, perBlock, got)
		}
		t.Logf("%d-byte blocks: a block of %d records allocates %.0f", blockSize, perBlock, got)
	}
}
