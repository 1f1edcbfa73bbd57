// Package xcrypto provides the authenticated block encryption used by the
// oblivious join engine.
//
// Every block stored on the untrusted server is sealed with AES-128-GCM
// under a fresh random nonce, so two encryptions of the same plaintext are
// computationally indistinguishable — the property the paper's security model
// (Section 3.2) requires: "two encrypted copies of the same data block look
// different" — and any server-side tampering is detected at Open. The paper
// used AES/CFB from Crypto++; an AEAD strengthens that to authenticated
// encryption without changing the sealed-block size.
//
// There is one sealed layout:
//
//	format(1) || epoch(1) || reserved(2) || nonce(12) || ciphertext || tag(16)
//
// where the 4 header bytes ride as GCM additional data (so the format and
// key epoch are themselves authenticated) and the epoch byte selects the
// HKDF-derived subkey the block was sealed under, enabling key rotation
// (see Keyring). The format byte is FormatGCM and the reserved bytes are
// zero; Open rejects anything else as ErrAuthFailed before touching a key,
// and costs at most one AEAD pass either way.
package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// KeySize is the AES key length in bytes (AES-128, as in the paper).
const KeySize = 16

// NonceSize is the GCM nonce length in the sealed layout.
const NonceSize = 12

// headerSize is the authenticated header of the sealed layout: format byte,
// epoch byte, two reserved zero bytes.
const headerSize = 4

// TagSize is the length of the GCM authentication tag appended to each
// sealed block.
const TagSize = 16

// Overhead is the number of bytes Seal adds to a plaintext block; ORAM
// bucket sizes, disk slots and wire frames are all sized from it.
const Overhead = headerSize + NonceSize + TagSize

// FormatGCM is the format byte of the AES-GCM sealed layout. (The value 1
// is retired: it named a headerless CTR+HMAC construction no store holds.)
const FormatGCM = 2

// Errors returned by Open.
var (
	ErrCiphertextTooShort = errors.New("xcrypto: ciphertext shorter than minimum sealed length")
	ErrAuthFailed         = errors.New("xcrypto: block authentication failed")
	ErrSealerClosed       = errors.New("xcrypto: sealer is closed")
)

// Sealer encrypts and decrypts fixed-size blocks. A Sealer is safe for
// concurrent use by multiple goroutines; per-epoch AEADs are derived lazily
// under a lock and immutable afterwards. Seal always uses the current epoch;
// Open accepts any epoch, which is what makes rotation lazy: blocks re-seal
// at the new epoch whenever they are next written back. The current epoch's
// AEAD sits behind one atomic pointer, so a seal, and an open of a block
// sealed at the current epoch, take no lock; SetEpoch and Close swap it.
type Sealer struct {
	cur    atomic.Pointer[epochAEAD] // the current epoch's AEAD; nil once closed
	mu     sync.Mutex
	aeads  map[uint8]cipher.AEAD
	epoch  uint8
	keyFor func(epoch uint8) [KeySize]byte // epoch subkey derivation; nil after Close
	rand   io.Reader
	closed bool
}

// epochAEAD is an epoch with its AEAD.
type epochAEAD struct {
	epoch uint8
	aead  cipher.AEAD
}

// NewSealer returns a Sealer using the given 16-byte key. The per-epoch GCM
// subkeys are derived from it, and the master key itself is not retained.
// randSrc supplies nonces; pass nil for crypto/rand. Tests may inject a
// deterministic reader for reproducibility. The sealer starts at epoch 0;
// see SetEpoch and Keyring for rotation.
func NewSealer(key []byte, randSrc io.Reader) (*Sealer, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("xcrypto: key must be %d bytes, got %d", KeySize, len(key))
	}
	return newSealer(hkdf(key, "oblivjoin sealer root v2"), 0, randSrc)
}

// newSealer assembles a Sealer from an already-derived root, which feeds the
// per-epoch subkeys.
func newSealer(root [sha256.Size]byte, epoch uint8, randSrc io.Reader) (*Sealer, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	s := &Sealer{
		aeads: make(map[uint8]cipher.AEAD),
		epoch: epoch,
		keyFor: func(e uint8) [KeySize]byte {
			var k [KeySize]byte
			sub := hkdf(root[:], fmt.Sprintf("epoch:%d", e))
			copy(k[:], sub[:])
			zero(sub[:])
			return k
		},
		rand: randSrc,
	}
	a, err := s.aead(epoch)
	if err != nil {
		return nil, err
	}
	s.cur.Store(&epochAEAD{epoch: epoch, aead: a})
	return s, nil
}

// NewRandomSealer generates a fresh random key and returns a Sealer over it,
// alongside the key so the client can persist it. The caller owns the
// returned key bytes; the sealer keeps only derived material and zeroizes it
// on Close.
func NewRandomSealer() (*Sealer, []byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, nil, fmt.Errorf("xcrypto: generating key: %w", err)
	}
	s, err := NewSealer(key, nil)
	if err != nil {
		return nil, nil, err
	}
	return s, key, nil
}

// hkdf derives a 32-byte subkey from secret bound to the info label, per
// RFC 5869 (HMAC-SHA256 extract with a zero salt, then a single expand
// block — sufficient for outputs up to one hash length).
func hkdf(secret []byte, info string) [sha256.Size]byte {
	var salt [sha256.Size]byte
	ex := hmac.New(sha256.New, salt[:])
	ex.Write(secret)
	prk := ex.Sum(nil)
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte(info))
	exp.Write([]byte{0x01})
	var out [sha256.Size]byte
	copy(out[:], exp.Sum(nil))
	zero(prk)
	return out
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// aead returns the AEAD for the given epoch, deriving and caching it on
// first use. The current epoch's is also behind s.cur, which is where the
// steady state finds it.
func (s *Sealer) aead(epoch uint8) (cipher.AEAD, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSealerClosed
	}
	if a, ok := s.aeads[epoch]; ok {
		return a, nil
	}
	k := s.keyFor(epoch)
	block, err := aes.NewCipher(k[:])
	zero(k[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: %w", err)
	}
	a, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: %w", err)
	}
	s.aeads[epoch] = a
	return a, nil
}

// Epoch reports the key epoch new seals are tagged with.
func (s *Sealer) Epoch() uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetEpoch rotates the sealer to the given key epoch: subsequent Seals use
// the epoch's HKDF-derived subkey, while Open keeps accepting every epoch.
// Rotation is therefore lazy — blocks migrate to the new epoch as they are
// rewritten — and, because the epoch byte rides inside the fixed-size sealed
// layout, invisible in the access sequence.
func (s *Sealer) SetEpoch(epoch uint8) error {
	a, err := s.aead(epoch)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSealerClosed
	}
	s.epoch = epoch
	s.cur.Store(&epochAEAD{epoch: epoch, aead: a})
	return nil
}

// Close zeroizes the sealer's key material. Any further Seal/Open fails with
// ErrSealerClosed. Close is idempotent.
func (s *Sealer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cur.Store(nil)
	s.keyFor = nil
	for e := range s.aeads {
		delete(s.aeads, e)
	}
	return nil
}

// SealedLen returns the ciphertext length for a plaintext of n bytes.
func SealedLen(n int) int { return n + Overhead }

// Seal encrypts plaintext under a fresh random nonce at the current epoch.
// Two calls with the same plaintext return different ciphertexts.
func (s *Sealer) Seal(plaintext []byte) ([]byte, error) {
	return s.SealTo(nil, plaintext)
}

// SealTo appends the sealed block to dst (which may be nil) and returns the
// extended slice, reusing dst's capacity when it suffices — the allocation-
// free path the ORAM write-back loops use. plaintext must not alias dst's
// spare capacity.
func (s *Sealer) SealTo(dst, plaintext []byte) ([]byte, error) {
	cur := s.cur.Load()
	if cur == nil {
		return nil, ErrSealerClosed
	}
	off := len(dst)
	need := off + SealedLen(len(plaintext))
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+headerSize+NonceSize]
	hdr := dst[off : off+headerSize]
	hdr[0] = FormatGCM
	hdr[1] = cur.epoch
	hdr[2], hdr[3] = 0, 0
	nonce := dst[off+headerSize : off+headerSize+NonceSize]
	if _, err := io.ReadFull(s.rand, nonce); err != nil {
		return nil, fmt.Errorf("xcrypto: reading nonce: %w", err)
	}
	return cur.aead.Seal(dst, nonce, plaintext, hdr), nil
}

// Open verifies and decrypts a block produced by Seal at any epoch.
func (s *Sealer) Open(sealed []byte) ([]byte, error) {
	return s.OpenTo(nil, sealed)
}

// OpenTo appends the verified plaintext to dst (which may be nil) and
// returns the extended slice, reusing dst's capacity when it suffices.
// sealed must not alias dst's spare capacity. A block whose header is not
// {FormatGCM, epoch, 0, 0} or whose tag does not verify is ErrAuthFailed.
func (s *Sealer) OpenTo(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrCiphertextTooShort
	}
	hdr := sealed[:headerSize]
	if hdr[0] != FormatGCM || hdr[2] != 0 || hdr[3] != 0 {
		return nil, ErrAuthFailed
	}
	cur := s.cur.Load()
	if cur == nil {
		return nil, ErrSealerClosed
	}
	aead := cur.aead
	if hdr[1] != cur.epoch { // a block sealed before a rotation
		var err error
		if aead, err = s.aead(hdr[1]); err != nil {
			return nil, err
		}
	}
	nonce := sealed[headerSize : headerSize+NonceSize]
	ct := sealed[headerSize+NonceSize:]
	off := len(dst)
	need := off + len(ct) - TagSize
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	out, err := aead.Open(dst, nonce, ct, hdr)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return out, nil
}
