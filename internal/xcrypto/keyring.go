package xcrypto

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Keyring derives per-store sealers from one master key and coordinates
// epoch-tagged key rotation across them.
//
// Key schedule (all edges HKDF, RFC 5869 with HMAC-SHA256):
//
//	master ──"keyring root"──▶ root ──"store:<name>"──▶ store root
//	                                     store root ──"epoch:<e>"──▶ AES-GCM subkey
//
// The master key is used only during construction and never retained; the
// keyring keeps the 32-byte root, from which it derives store subkeys on
// demand, and no two stores' sealers share any key. Close zeroizes
// everything.
//
// Rotation: Rotate bumps the epoch on every sealer the ring has handed out
// (and every future one). New writes seal under the new epoch's subkey;
// blocks sealed under older epochs keep opening, and migrate lazily as the
// ORAM write-back path next rewrites them. The epoch byte lives inside the
// fixed-size sealed layout, so a rotation is invisible in the server's
// access sequence — see the trace-identity guard in the oram tests.
type Keyring struct {
	mu      sync.Mutex
	epoch   uint8
	rand    io.Reader
	root    [32]byte
	sealers map[string]*Sealer
	closed  bool
}

// ErrEpochExhausted is returned by Rotate at epoch 255: the epoch is one
// byte of the sealed layout, and wrapping to 0 would silently put the
// epoch-0 subkey back in service.
var ErrEpochExhausted = errors.New("xcrypto: key epochs exhausted")

// NewKeyring builds a keyring from the 16-byte master key, starting at the
// given epoch. randSrc supplies seal nonces for every derived sealer; nil
// means crypto/rand. The master key is not retained.
func NewKeyring(master []byte, epoch uint8, randSrc io.Reader) (*Keyring, error) {
	if len(master) != KeySize {
		return nil, fmt.Errorf("xcrypto: master key must be %d bytes, got %d", KeySize, len(master))
	}
	return &Keyring{
		epoch:   epoch,
		rand:    randSrc,
		root:    hkdf(master, "oblivjoin keyring root v2"),
		sealers: make(map[string]*Sealer),
	}, nil
}

// Sealer returns the store's sealer, deriving and caching it on first use.
// Every store name gets an independent HKDF subkey chain, so a compromise of
// one store's working keys does not expose another's; all sealers share the
// ring's current epoch.
func (k *Keyring) Sealer(name string) (*Sealer, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil, ErrSealerClosed
	}
	if s, ok := k.sealers[name]; ok {
		return s, nil
	}
	storeRoot := hkdf(k.root[:], "store:"+name)
	s, err := newSealer(storeRoot, k.epoch, k.rand)
	zero(storeRoot[:])
	if err != nil {
		return nil, err
	}
	k.sealers[name] = s
	return s, nil
}

// Subkey derives a named 32-byte subkey from the ring's root, for keyed
// non-sealing uses — e.g. MACing plan-cache signatures — that must not
// share key material with any store's sealing chain. The "subkey:" label
// prefix keeps the derivation domain disjoint from the "store:" chain, so
// no subkey ever coincides with a store root. The returned slice is the
// caller's to zeroize when done.
func (k *Keyring) Subkey(label string) ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil, ErrSealerClosed
	}
	sub := hkdf(k.root[:], "subkey:"+label)
	return sub[:], nil
}

// Epoch reports the ring's current key epoch.
func (k *Keyring) Epoch() uint8 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.epoch
}

// Rotate advances the ring to the next epoch and switches every derived
// sealer to it. It returns the new epoch. Rotation is lazy: previously
// sealed blocks stay openable and re-seal under the new epoch on their next
// write-back. At epoch 255 it fails with ErrEpochExhausted and changes
// nothing.
func (k *Keyring) Rotate() (uint8, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return 0, ErrSealerClosed
	}
	if k.epoch == 255 {
		return 0, ErrEpochExhausted
	}
	next := k.epoch + 1
	for name, s := range k.sealers {
		if err := s.SetEpoch(next); err != nil {
			return 0, fmt.Errorf("xcrypto: rotating store %q: %w", name, err)
		}
	}
	k.epoch = next
	return next, nil
}

// SetEpoch pins the ring (and every derived sealer) to a specific epoch,
// e.g. restarting a client at the epoch its deployment has rotated to.
func (k *Keyring) SetEpoch(epoch uint8) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return ErrSealerClosed
	}
	for name, s := range k.sealers {
		if err := s.SetEpoch(epoch); err != nil {
			return fmt.Errorf("xcrypto: rotating store %q: %w", name, err)
		}
	}
	k.epoch = epoch
	return nil
}

// Close zeroizes the ring's key material and closes every derived sealer.
// Idempotent; further Sealer calls fail with ErrSealerClosed.
func (k *Keyring) Close() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil
	}
	k.closed = true
	zero(k.root[:])
	for name, s := range k.sealers {
		s.Close()
		delete(k.sealers, name)
	}
	return nil
}
