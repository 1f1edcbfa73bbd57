package xcrypto

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newTestSealer(t *testing.T) *Sealer {
	t.Helper()
	key := bytes.Repeat([]byte{0x42}, KeySize)
	s, err := NewSealer(key, nil)
	if err != nil {
		t.Fatalf("NewSealer: %v", err)
	}
	return s
}

func TestSealOpenRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	for _, n := range []int{0, 1, 15, 16, 17, 100, 4096} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i)
		}
		ct, err := s.Seal(pt)
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", n, err)
		}
		if len(ct) != SealedLen(n) {
			t.Errorf("SealedLen(%d) = %d, ciphertext is %d", n, SealedLen(n), len(ct))
		}
		got, err := s.Open(ct)
		if err != nil {
			t.Fatalf("Open(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip of %d bytes mismatched", n)
		}
	}
}

func TestSealIsRandomized(t *testing.T) {
	s := newTestSealer(t)
	pt := []byte("the same plaintext block")
	a, err := s.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same plaintext must differ (semantic security)")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	s := newTestSealer(t)
	ct, err := s.Seal([]byte("sensitive tuple data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, headerSize + NonceSize, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[pos] ^= 0x01
		if _, err := s.Open(bad); err != ErrAuthFailed {
			t.Errorf("tamper at %d: got err %v, want ErrAuthFailed", pos, err)
		}
	}
}

func TestOpenRejectsShortInput(t *testing.T) {
	s := newTestSealer(t)
	if _, err := s.Open(make([]byte, Overhead-1)); err != ErrCiphertextTooShort {
		t.Errorf("got %v, want ErrCiphertextTooShort", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	s1 := newTestSealer(t)
	s2, err := NewSealer(bytes.Repeat([]byte{0x99}, KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s1.Seal([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Open(ct); err != ErrAuthFailed {
		t.Errorf("wrong key: got %v, want ErrAuthFailed", err)
	}
}

func TestNewSealerRejectsBadKeyLength(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 32} {
		if _, err := NewSealer(make([]byte, n), nil); err == nil {
			t.Errorf("NewSealer with %d-byte key should fail", n)
		}
	}
}

func TestNewRandomSealer(t *testing.T) {
	s, key, err := NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != KeySize {
		t.Fatalf("key length %d", len(key))
	}
	ct, err := s.Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// A sealer reconstructed from the returned key must open the block.
	s2, err := NewSealer(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s2.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "x" {
		t.Fatalf("got %q", pt)
	}
}

func TestSealOpenQuick(t *testing.T) {
	s := newTestSealer(t)
	f := func(pt []byte) bool {
		ct, err := s.Seal(pt)
		if err != nil {
			return false
		}
		got, err := s.Open(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSealedLayoutHeader(t *testing.T) {
	s := newTestSealer(t)
	ct, err := s.Seal([]byte("block"))
	if err != nil {
		t.Fatal(err)
	}
	if ct[0] != FormatGCM {
		t.Errorf("format byte = %d, want %d", ct[0], FormatGCM)
	}
	if ct[1] != 0 {
		t.Errorf("epoch byte = %d, want 0", ct[1])
	}
	if ct[2] != 0 || ct[3] != 0 {
		t.Errorf("reserved bytes = %d,%d, want 0,0", ct[2], ct[3])
	}
}

func TestSealToOpenToAppend(t *testing.T) {
	s := newTestSealer(t)
	prefix := []byte("frame-header")
	sealed, err := s.SealTo(append([]byte(nil), prefix...), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(sealed, prefix) {
		t.Fatal("SealTo must append after the existing bytes")
	}
	if len(sealed) != len(prefix)+SealedLen(len("payload")) {
		t.Fatalf("sealed length %d", len(sealed))
	}
	got, err := s.OpenTo([]byte("pt-prefix"), sealed[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "pt-prefix"+"payload" {
		t.Fatalf("OpenTo result %q", got)
	}
}

func TestSealToReusesCapacity(t *testing.T) {
	s := newTestSealer(t)
	pt := make([]byte, 512)
	scratch := make([]byte, 0, SealedLen(len(pt)))
	allocs := testing.AllocsPerRun(100, func() {
		out, err := s.SealTo(scratch[:0], pt)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out[:0]
	})
	if allocs > 0 {
		t.Errorf("SealTo into sized scratch allocated %.1f/op, want 0", allocs)
	}
	sealed, err := s.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	open := make([]byte, 0, len(pt))
	allocs = testing.AllocsPerRun(100, func() {
		out, err := s.OpenTo(open[:0], sealed)
		if err != nil {
			t.Fatal(err)
		}
		open = out[:0]
	})
	if allocs > 0 {
		t.Errorf("OpenTo into sized scratch allocated %.1f/op, want 0", allocs)
	}
}

func TestSetEpochCrossOpen(t *testing.T) {
	s := newTestSealer(t)
	ct0, err := s.Seal([]byte("epoch 0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(7); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 7 {
		t.Fatalf("Epoch() = %d", s.Epoch())
	}
	ct7, err := s.Seal([]byte("epoch 7"))
	if err != nil {
		t.Fatal(err)
	}
	if ct7[1] != 7 {
		t.Fatalf("epoch byte = %d, want 7", ct7[1])
	}
	for _, ct := range [][]byte{ct0, ct7} {
		if _, err := s.Open(ct); err != nil {
			t.Errorf("open epoch-%d block after rotation: %v", ct[1], err)
		}
	}
	// Flipping the (authenticated) epoch byte must fail, not decrypt under
	// the wrong subkey.
	bad := append([]byte(nil), ct7...)
	bad[1] = 0
	if _, err := s.Open(bad); err != ErrAuthFailed {
		t.Errorf("epoch-byte tamper: got %v, want ErrAuthFailed", err)
	}
}

func TestSealerClose(t *testing.T) {
	s := newTestSealer(t)
	ct, err := s.Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	if _, err := s.Seal([]byte("y")); err != ErrSealerClosed {
		t.Errorf("Seal after Close: got %v, want ErrSealerClosed", err)
	}
	if _, err := s.Open(ct); err != ErrSealerClosed {
		t.Errorf("Open after Close: got %v, want ErrSealerClosed", err)
	}
}

// TestSetEpochBesideSealOpen rotates a sealer while two goroutines seal and
// open through it (run it under -race): every block carries an epoch the
// sealer has been set to, opens to what was sealed, and a block sealed
// before a rotation still opens after it. Close then refuses both.
func TestSetEpochBesideSealOpen(t *testing.T) {
	s := newTestSealer(t)
	const rotations = 40
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var old [][]byte
			plain := []byte{byte(g), 0, 0, 0}
			for i := 0; i < 400; i++ {
				plain[1] = byte(i)
				ct, err := s.SealTo(nil, plain)
				if err != nil {
					errs <- err
					return
				}
				if ct[1] > rotations {
					errs <- fmt.Errorf("sealed at epoch %d, never set", ct[1])
					return
				}
				if i%50 == 0 {
					old = append(old, ct)
				}
				got, err := s.OpenTo(nil, ct)
				if err != nil || !bytes.Equal(got, plain) {
					errs <- fmt.Errorf("open of a block sealed at epoch %d: %q, %v", ct[1], got, err)
					return
				}
			}
			for _, ct := range old {
				if _, err := s.Open(ct); err != nil {
					errs <- fmt.Errorf("open of an epoch-%d block after rotations: %v", ct[1], err)
					return
				}
			}
		}(g)
	}
	for e := uint8(1); e <= rotations; e++ {
		if err := s.SetEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Epoch() != rotations {
		t.Fatalf("Epoch() = %d, want %d", s.Epoch(), rotations)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal([]byte("y")); err != ErrSealerClosed {
		t.Errorf("Seal after Close: got %v, want ErrSealerClosed", err)
	}
	if err := s.SetEpoch(1); err != ErrSealerClosed {
		t.Errorf("SetEpoch after Close: got %v, want ErrSealerClosed", err)
	}
}

func BenchmarkSeal4KB(b *testing.B) {
	s, _, err := NewRandomSealer()
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen4KB(b *testing.B) {
	s, _, err := NewRandomSealer()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := s.Seal(make([]byte, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
}
