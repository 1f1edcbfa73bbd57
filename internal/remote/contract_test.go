package remote

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/xcrypto"
)

// TestRemoteStoreBatchContract runs the shared backend conformance suite
// against a client-side RemoteStore talking to a loopback server, so the
// networked backend cannot drift from MemStore on duplicate-index ordering,
// exchange read-after-write, or ErrOutOfRange wrapping (which RemoteError.Is
// carries across the string-flattening wire).
func TestRemoteStoreBatchContract(t *testing.T) {
	_, c := startServer(t, ServerOptions{}, ClientOptions{})
	n := 0
	storetest.TestBatchContract(t, "remote", func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore {
		n++
		st, err := c.Create(fmt.Sprintf("contract%d", n), slots, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}

// TestRemoteStoreRoundPerCall: every block method of a RemoteStore is one
// request on the wire and one round on its client's meter.
func TestRemoteStoreRoundPerCall(t *testing.T) {
	storetest.TestRoundPerCall(t, "remote", func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.ExchangeStore {
		_, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
		st, err := c.Create("rounds", slots, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}

// TestStoreWithoutExchangeRefusedAtOpen: an opener whose store has no
// exchange form is refused when the store is opened — by both Path-ORAM
// constructors and by the server's OpCreate — not at the first access.
func TestStoreWithoutExchangeRefusedAtOpen(t *testing.T) {
	storeOnly := func(name string, slots int64, blockSize int) (storage.Store, error) {
		return struct{ storage.Store }{storage.NewMemStore(name, slots, blockSize, nil)}, nil
	}
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{7}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := oram.PathConfig{Name: "bare", Capacity: 8, PayloadSize: 16, Sealer: sealer, OpenStore: storeOnly}
	if _, err := oram.NewPathORAM(cfg); err == nil {
		t.Fatal("NewPathORAM accepted a store with no exchange form")
	}
	if _, err := oram.NewTagged(cfg); err == nil {
		t.Fatal("NewTagged accepted a store with no exchange form")
	}
	srv, c := startServer(t, ServerOptions{OpenStore: storeOnly}, ClientOptions{})
	if _, err := c.Create("bare", 8, 32); err == nil {
		t.Fatal("OpCreate accepted a store with no exchange form")
	}
	if len(srv.StoreNames()) != 0 {
		t.Fatalf("the refused store is hosted: %v", srv.StoreNames())
	}
	if err := srv.Register("bare", struct{ storage.Store }{storage.NewMemStore("bare", 8, 32, nil)}); err == nil {
		t.Fatal("Register accepted a store with no exchange form")
	}
}

// TestRemoteErrorIs pins the across-the-wire sentinel match directly.
func TestRemoteErrorIs(t *testing.T) {
	err := &RemoteError{Msg: storage.ErrOutOfRange.Error() + ": read 9 of 4 (t)"}
	if !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatal("RemoteError carrying an out-of-range message does not match the sentinel")
	}
	if errors.Is(&RemoteError{Msg: "remote: unknown store"}, storage.ErrOutOfRange) {
		t.Fatal("unrelated RemoteError matches ErrOutOfRange")
	}
}
