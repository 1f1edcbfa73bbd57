package oram

import (
	"fmt"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

// LinearORAM is the trivial ORAM: every access reads and rewrites every
// block. It is trivially oblivious (the pattern is the full scan no matter
// what is accessed), needs no client state beyond the key, and costs O(N)
// per access — the classic baseline the ORAM literature improves on.
//
// The paper treats the ORAM scheme as a blackbox behind the join
// algorithms; LinearORAM exists to demonstrate exactly that: every join in
// this repository runs unchanged on top of it (see the scheme ablation),
// just slower.
type LinearORAM struct {
	store   *storage.MemStore
	name    string
	sealer  *xcrypto.Sealer
	meter   *storage.Meter
	payload int
	n       int64

	// Scratch reused by the scan loop (one access re-seals every block, so
	// per-block allocations dominate without it).
	openBuf []byte
	sealBuf []byte
}

// blocks are stored as valid(1) || payload, sealed.
func linearSlot(payload int) int { return 1 + payload }

// NewLinearORAM builds an all-encrypted flat array of capacity blocks.
func NewLinearORAM(cfg PathConfig) (*LinearORAM, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("oram: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.PayloadSize <= 0 {
		return nil, fmt.Errorf("oram: payload size must be positive, got %d", cfg.PayloadSize)
	}
	sealer, err := resolveSealer(cfg)
	if err != nil {
		return nil, err
	}
	o := &LinearORAM{
		name:    cfg.Name,
		sealer:  sealer,
		meter:   cfg.Meter,
		payload: cfg.PayloadSize,
		n:       cfg.Capacity,
	}
	o.store = storage.NewMemStore(cfg.Name, cfg.Capacity, xcrypto.SealedLen(linearSlot(cfg.PayloadSize)), cfg.Meter)
	empty := make([]byte, linearSlot(cfg.PayloadSize))
	for i := int64(0); i < cfg.Capacity; i++ {
		sealed, err := sealer.SealTo(o.sealBuf[:0], empty)
		if err != nil {
			return nil, err
		}
		o.sealBuf = sealed[:0]
		if err := o.store.Write(i, sealed); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// access scans every block, re-encrypting each; the target block (if any)
// is extracted/updated in passing.
func (o *LinearORAM) access(key uint64, newData []byte, update func([]byte) error, dummy bool) ([]byte, error) {
	if !dummy && key >= uint64(o.n) {
		return nil, fmt.Errorf("oram: key %d out of capacity %d", key, o.n)
	}
	var result []byte
	var found bool
	var err error
	for i := int64(0); i < o.n; i++ {
		sealed, rerr := o.store.Read(i)
		if rerr != nil {
			return nil, rerr
		}
		plain, oerr := o.sealer.OpenTo(o.openBuf[:0], sealed)
		if oerr != nil {
			return nil, fmt.Errorf("oram: store %q block %d: %w", o.name, i, oerr)
		}
		o.openBuf = plain[:0]
		if !dummy && uint64(i) == key {
			found = plain[0] == 1
			switch {
			case newData != nil:
				plain[0] = 1
				copy(plain[1:], newData)
				for j := 1 + len(newData); j < len(plain); j++ {
					plain[j] = 0
				}
			case found && update != nil:
				if uerr := update(plain[1:]); uerr != nil && err == nil {
					err = uerr
				}
				fallthrough
			case found:
				result = append([]byte(nil), plain[1:]...)
			}
		}
		resealed, serr := o.sealer.SealTo(o.sealBuf[:0], plain)
		if serr != nil {
			return nil, serr
		}
		o.sealBuf = resealed[:0]
		if werr := o.store.Write(i, resealed); werr != nil {
			return nil, werr
		}
	}
	if !dummy && newData == nil && !found && err == nil {
		err = fmt.Errorf("%w: key %d", ErrNotFound, key)
	}
	if o.meter != nil {
		o.meter.CountRound()
	}
	return result, err
}

// Read implements ORAM.
func (o *LinearORAM) Read(key uint64) ([]byte, error) { return o.access(key, nil, nil, false) }

// Write implements ORAM.
func (o *LinearORAM) Write(key uint64, payload []byte) error {
	if len(payload) > o.payload {
		return fmt.Errorf("oram: payload %d exceeds block size %d", len(payload), o.payload)
	}
	_, err := o.access(key, payload, nil, false)
	return err
}

// Update implements ORAM.
func (o *LinearORAM) Update(key uint64, fn func([]byte) error) ([]byte, error) {
	return o.access(key, nil, fn, false)
}

// DummyAccess implements ORAM: the scan happens regardless.
func (o *LinearORAM) DummyAccess() error {
	_, err := o.access(0, nil, nil, true)
	return err
}

// PayloadSize implements ORAM.
func (o *LinearORAM) PayloadSize() int { return o.payload }

// Capacity implements ORAM.
func (o *LinearORAM) Capacity() int64 { return o.n }

// AccessesPerOp implements ORAM: the full scan, read and rewritten.
func (o *LinearORAM) AccessesPerOp() int { return int(2 * o.n) }

// BlockBytes implements ORAM.
func (o *LinearORAM) BlockBytes() int { return o.store.BlockSize() }

// ClientBytes implements ORAM: none.
func (o *LinearORAM) ClientBytes() int64 { return 0 }

// ServerBytes implements ORAM.
func (o *LinearORAM) ServerBytes() int64 { return o.store.SizeBytes() }

// BulkLoad stores payloads[i] under key i with one sealed write each.
func (o *LinearORAM) BulkLoad(payloads [][]byte) error {
	if int64(len(payloads)) > o.n {
		return fmt.Errorf("oram: bulk load of %d exceeds capacity %d", len(payloads), o.n)
	}
	for i, p := range payloads {
		if len(p) > o.payload {
			return fmt.Errorf("oram: bulk payload %d is %d bytes, exceeds %d", i, len(p), o.payload)
		}
		plain := make([]byte, linearSlot(o.payload))
		plain[0] = 1
		copy(plain[1:], p)
		sealed, err := o.sealer.Seal(plain)
		if err != nil {
			return err
		}
		if err := o.store.Write(int64(i), sealed); err != nil {
			return err
		}
	}
	return nil
}
