package oram

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

func testKeyring(t testing.TB, epoch uint8) *xcrypto.Keyring {
	t.Helper()
	kr, err := xcrypto.NewKeyring(bytes.Repeat([]byte{9}, xcrypto.KeySize), epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kr.Close() })
	return kr
}

// ringSealer is the ring's sealer for store name, as the table layer hands
// it to each tree it builds: an epoch rotation on the ring reaches it.
func ringSealer(t testing.TB, kr *xcrypto.Keyring, name string) *xcrypto.Sealer {
	t.Helper()
	s, err := kr.Sealer(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKeyringRotationTraceIdentity is the rotation security guard: rotating
// the keyring mid-run must leave the server-visible access sequence —
// store names, access kinds, block indices, transfer sizes, in order —
// byte-identical to a run that never rotates. Rotation changes only the
// ciphertext contents, which Path-ORAM freshly randomizes on every write
// anyway, so a trace divergence would mean key management leaked into the
// access pattern.
func TestKeyringRotationTraceIdentity(t *testing.T) {
	run := func(rotate bool) []storage.Access {
		meter := storage.NewMeter()
		meter.SetTracing(true)
		meter.SetTraceLimit(-1)
		kr := testKeyring(t, 0)
		o, err := NewPathORAM(PathConfig{
			Name:        "rot",
			Capacity:    64,
			PayloadSize: 32,
			Meter:       meter,
			Sealer:      ringSealer(t, kr, "rot"),
			Rand:        NewSeededSource(1234),
		})
		if err != nil {
			t.Fatal(err)
		}
		payloads := make([][]byte, 64)
		for i := range payloads {
			payloads[i] = bytes.Repeat([]byte{byte(i)}, 32)
		}
		if err := o.BulkLoad(payloads); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 48; step++ {
			if rotate && step == 24 {
				if _, err := kr.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
			key := uint64(step * 7 % 64)
			if step%3 == 0 {
				if err := o.Write(key, bytes.Repeat([]byte{byte(step)}, 32)); err != nil {
					t.Fatal(err)
				}
			} else {
				got, err := o.Read(key)
				if err != nil {
					t.Fatalf("step %d (rotate=%v): %v", step, rotate, err)
				}
				if len(got) != 32 {
					t.Fatalf("step %d: payload of %d bytes", step, len(got))
				}
			}
		}
		return meter.Trace()
	}
	plain := run(false)
	rotated := run(true)
	if len(plain) == 0 {
		t.Fatal("empty trace")
	}
	if len(plain) != len(rotated) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(plain), len(rotated))
	}
	for i := range plain {
		if plain[i] != rotated[i] {
			t.Fatalf("trace diverges at access %d: %+v vs %+v", i, plain[i], rotated[i])
		}
	}
}

// TestKeyringRotationLazyMigration checks blocks sealed before a rotation
// stay readable after it (lazy re-seal: Open accepts all epochs, writes use
// the current one).
func TestKeyringRotationLazyMigration(t *testing.T) {
	kr := testKeyring(t, 0)
	o, err := NewPathORAM(PathConfig{
		Name:        "mig",
		Capacity:    32,
		PayloadSize: 24,
		Sealer:      ringSealer(t, kr, "mig"),
		Rand:        NewSeededSource(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 32)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, 24)
	}
	if err := o.BulkLoad(want); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if _, err := kr.Rotate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i += 5 {
			got, err := o.Read(uint64(i))
			if err != nil {
				t.Fatalf("epoch %d key %d: %v", kr.Epoch(), i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("epoch %d key %d: wrong payload", kr.Epoch(), i)
			}
		}
	}
}

// TestAuthFailureWrappedWithContext is the diagnosability contract for
// decryption failures: a tampered bucket must surface as an error matching
// errors.Is(err, xcrypto.ErrAuthFailed) that names the store and bucket
// index, through every wrapping layer.
func TestAuthFailureWrappedWithContext(t *testing.T) {
	var backing storage.Store
	o, err := NewPathORAM(PathConfig{
		Name:        "tampered",
		Capacity:    16,
		PayloadSize: 16,
		Sealer:      testSealer(t),
		Rand:        NewSeededSource(3),
		OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
			backing = storage.NewMemStore(name, slots, blockSize, nil)
			return backing, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Write(5, bytes.Repeat([]byte{5}, 16)); err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext byte in every bucket so whichever path the next
	// access reads fails authentication.
	for i := int64(0); i < backing.Len(); i++ {
		blk, err := backing.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		blk[len(blk)-1] ^= 0xFF
		if err := backing.Write(i, blk); err != nil {
			t.Fatal(err)
		}
	}
	_, err = o.Read(5)
	if err == nil {
		t.Fatal("tampered bucket read succeeded")
	}
	if !errors.Is(err, xcrypto.ErrAuthFailed) {
		t.Fatalf("error %v does not match xcrypto.ErrAuthFailed", err)
	}
	if !strings.Contains(err.Error(), `"tampered"`) || !strings.Contains(err.Error(), "bucket") {
		t.Fatalf("error %q lacks store/bucket context", err)
	}
}
