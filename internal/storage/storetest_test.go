package storage_test

import (
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// TestMemStoreBatchContract runs the shared backend conformance suite
// (duplicate-index last-writer-wins, exchange read-after-write, wrapped
// ErrOutOfRange) against the in-memory reference backend. The disk and
// remote backends run the identical suite in their own packages.
func TestMemStoreBatchContract(t *testing.T) {
	storetest.TestBatchContract(t, "mem", func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore {
		return storage.NewMemStore("contract", slots, blockSize, nil)
	})
}

// TestMemStoreRoundPerCall: every block method of the in-memory store, the
// single-block Read and Write included, is one metered round.
func TestMemStoreRoundPerCall(t *testing.T) {
	storetest.TestRoundPerCall(t, "mem", func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.ExchangeStore {
		return storage.NewMemStore("rounds", slots, blockSize, m)
	})
}
