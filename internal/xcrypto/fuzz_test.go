package xcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"testing"
)

// retiredCTRHMACBlock hand-builds a block of the retired format 1 — AES-CTR
// under a random IV, truncated HMAC-SHA256 tag, both keys HMAC-derived from
// the master key — exactly as the deleted code sealed it. Nothing may open
// one any more.
func retiredCTRHMACBlock(tb testing.TB, master, plaintext []byte) []byte {
	tb.Helper()
	derive := func(label string) []byte {
		h := hmac.New(sha256.New, master)
		h.Write([]byte(label))
		return h.Sum(nil)[:KeySize]
	}
	block, err := aes.NewCipher(derive("enc"))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, aes.BlockSize+len(plaintext), aes.BlockSize+len(plaintext)+TagSize)
	if _, err := rand.Read(out[:aes.BlockSize]); err != nil {
		tb.Fatal(err)
	}
	cipher.NewCTR(block, out[:aes.BlockSize]).XORKeyStream(out[aes.BlockSize:], plaintext)
	mac := hmac.New(sha256.New, derive("mac"))
	mac.Write(out)
	return append(out, mac.Sum(nil)[:TagSize]...)
}

// FuzzOpen hardens the client against arbitrary bytes from a malicious
// server: Open must never panic, and every input either opens under GCM —
// which only a block carrying the {FormatGCM, epoch, 0, 0} header can — or
// fails with ErrAuthFailed or ErrCiphertextTooShort. There is no second
// format to fall back to.
func FuzzOpen(f *testing.F) {
	master := bytes.Repeat([]byte{1}, KeySize)
	s, err := NewSealer(master, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := s.Seal([]byte("seed block"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(make([]byte, Overhead))
	f.Add(make([]byte, Overhead+100))
	// A genuine block at a later epoch, one with the epoch byte flipped, and
	// bare GCM headers over zeros and over random bytes.
	if err := s.SetEpoch(3); err != nil {
		f.Fatal(err)
	}
	epochBlock, err := s.Seal([]byte("epoch-tagged block"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(epochBlock)
	flipped := append([]byte(nil), epochBlock...)
	flipped[1] ^= 0xFF
	f.Add(flipped)
	junk := make([]byte, Overhead+32)
	junk[0] = FormatGCM
	f.Add(junk)
	noise := make([]byte, Overhead+32)
	if _, err := rand.Read(noise); err != nil {
		f.Fatal(err)
	}
	copy(noise, []byte{FormatGCM, 3, 0, 0})
	f.Add(noise)
	// The retired format: an authentic CTR+HMAC block under the same master
	// key is as unauthentic as any other bytes.
	retired := retiredCTRHMACBlock(f, master, []byte("ctr+hmac era block"))
	if _, err := s.Open(retired); err != ErrAuthFailed {
		f.Fatalf("retired-format block: got %v, want ErrAuthFailed", err)
	}
	f.Add(retired)
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := s.Open(data)
		switch {
		case err == nil:
			if data[0] != FormatGCM || data[2] != 0 || data[3] != 0 {
				t.Fatalf("opened a block with header % x", data[:headerSize])
			}
			// Only genuinely sealed blocks may open; re-seal and re-open to
			// confirm self-consistency.
			ct2, err := s.Seal(pt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open(ct2); err != nil {
				t.Fatal(err)
			}
		case len(data) < Overhead:
			if err != ErrCiphertextTooShort {
				t.Fatalf("%d-byte input: got %v, want ErrCiphertextTooShort", len(data), err)
			}
		case err != ErrAuthFailed:
			t.Fatalf("got %v, want ErrAuthFailed", err)
		}
	})
}

// FuzzSealRoundTrip checks Seal/Open over arbitrary plaintexts.
func FuzzSealRoundTrip(f *testing.F) {
	s, err := NewSealer(bytes.Repeat([]byte{2}, KeySize), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("tuple data"))
	f.Fuzz(func(t *testing.T, pt []byte) {
		ct, err := s.Seal(pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Open(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatal("round trip mismatch")
		}
	})
}
