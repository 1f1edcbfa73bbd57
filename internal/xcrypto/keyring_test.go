package xcrypto

import (
	"bytes"
	"errors"
	"testing"
)

func newTestKeyring(t *testing.T) *Keyring {
	t.Helper()
	k, err := NewKeyring(bytes.Repeat([]byte{0x42}, KeySize), 0, nil)
	if err != nil {
		t.Fatalf("NewKeyring: %v", err)
	}
	return k
}

func TestKeyringPerStoreSeparation(t *testing.T) {
	k := newTestKeyring(t)
	defer k.Close()
	sa, err := k.Sealer("T1.data")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := k.Sealer("T2.data")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sa.Seal([]byte("tuple"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Open(ct); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("cross-store open: got %v, want ErrAuthFailed (subkeys must be independent)", err)
	}
	pt, err := sa.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "tuple" {
		t.Fatalf("got %q", pt)
	}
	// Same name twice yields the same cached sealer.
	again, err := k.Sealer("T1.data")
	if err != nil {
		t.Fatal(err)
	}
	if again != sa {
		t.Error("Sealer must cache per store name")
	}
}

func TestKeyringSubkey(t *testing.T) {
	k := newTestKeyring(t)
	defer k.Close()
	a, err := k.Subkey("plan-cache signature")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 32 {
		t.Fatalf("subkey is %d bytes, want 32", len(a))
	}
	b, err := k.Subkey("other purpose")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("distinct labels must derive distinct subkeys")
	}
	// Deterministic across rings with the same master.
	k2 := newTestKeyring(t)
	defer k2.Close()
	a2, err := k2.Subkey("plan-cache signature")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, a2) {
		t.Error("same master + label must derive the same subkey")
	}
	k3 := newTestKeyring(t)
	k3.Close()
	if _, err := k3.Subkey("x"); !errors.Is(err, ErrSealerClosed) {
		t.Errorf("closed ring Subkey: got %v, want ErrSealerClosed", err)
	}
}

func TestKeyringRotationLazyReseal(t *testing.T) {
	k := newTestKeyring(t)
	defer k.Close()
	s, err := k.Sealer("T1.data")
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.Seal([]byte("epoch zero block"))
	if err != nil {
		t.Fatal(err)
	}
	if old[1] != 0 {
		t.Fatalf("epoch byte = %d, want 0", old[1])
	}
	next, err := k.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 || k.Epoch() != 1 || s.Epoch() != 1 {
		t.Fatalf("rotate: ring %d sealer %d returned %d, want all 1", k.Epoch(), s.Epoch(), next)
	}
	// Old-epoch blocks still open after rotation (lazy migration).
	pt, err := s.Open(old)
	if err != nil {
		t.Fatalf("open pre-rotation block: %v", err)
	}
	// Re-sealing (the write-back path) stamps the new epoch.
	renewed, err := s.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if renewed[1] != 1 {
		t.Fatalf("re-sealed epoch byte = %d, want 1", renewed[1])
	}
	// A store derived after the rotation starts at the ring's epoch.
	late, err := k.Sealer("T9.data")
	if err != nil {
		t.Fatal(err)
	}
	if late.Epoch() != 1 {
		t.Fatalf("late sealer epoch = %d, want 1", late.Epoch())
	}
}

func TestKeyringDeterministicAcrossInstances(t *testing.T) {
	master := bytes.Repeat([]byte{7}, KeySize)
	k1, err := NewKeyring(master, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer k1.Close()
	s1, err := k1.Sealer("shared")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s1.Seal([]byte("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh keyring over the same master key (a client restart) derives
	// the same store subkeys and opens the block.
	k2, err := NewKeyring(master, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	s2, err := k2.Sealer("shared")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s2.Open(ct)
	if err != nil {
		t.Fatalf("restart open: %v", err)
	}
	if string(pt) != "persisted" {
		t.Fatalf("got %q", pt)
	}
}

// TestKeyringRotateExhaustion: the epoch is one byte, so a ring at 255 has
// nowhere to rotate to. Wrapping to 0 would put the epoch-0 subkey back in
// service without a word; Rotate must refuse and leave ring and sealers at
// 255.
func TestKeyringRotateExhaustion(t *testing.T) {
	k, err := NewKeyring(bytes.Repeat([]byte{9}, KeySize), 255, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	s, err := k.Sealer("T1.data")
	if err != nil {
		t.Fatal(err)
	}
	if e, err := k.Rotate(); !errors.Is(err, ErrEpochExhausted) {
		t.Fatalf("Rotate at epoch 255 = %d, %v; want ErrEpochExhausted", e, err)
	}
	if k.Epoch() != 255 || s.Epoch() != 255 {
		t.Fatalf("after a refused Rotate: ring at %d, sealer at %d, want 255", k.Epoch(), s.Epoch())
	}
	ct, err := s.Seal([]byte("still epoch 255"))
	if err != nil {
		t.Fatal(err)
	}
	if ct[1] != 255 {
		t.Fatalf("sealed under epoch %d, want 255", ct[1])
	}
}

func TestKeyringClose(t *testing.T) {
	k := newTestKeyring(t)
	s, err := k.Sealer("T1.data")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	if _, err := k.Sealer("T2.data"); !errors.Is(err, ErrSealerClosed) {
		t.Errorf("Sealer after Close: got %v, want ErrSealerClosed", err)
	}
	if _, err := k.Rotate(); !errors.Is(err, ErrSealerClosed) {
		t.Errorf("Rotate after Close: got %v, want ErrSealerClosed", err)
	}
	if _, err := s.Seal([]byte("x")); !errors.Is(err, ErrSealerClosed) {
		t.Errorf("Seal on derived sealer after ring Close: got %v, want ErrSealerClosed", err)
	}
}

func TestKeyringRejectsBadMasterLength(t *testing.T) {
	for _, n := range []int{0, 15, 17, 32} {
		if _, err := NewKeyring(make([]byte, n), 0, nil); err == nil {
			t.Errorf("NewKeyring with %d-byte master should fail", n)
		}
	}
}
