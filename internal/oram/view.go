package oram

import (
	"errors"
	"fmt"
)

// View exposes a contiguous key range [offset, offset+capacity) of a base
// ORAM as a standalone ORAM with keys starting at zero. The paper's OneORAM
// setting (Section 7) stores every table's data and index blocks in one
// Path-ORAM; views let the table and index layers address their slices of it
// unchanged.
type View struct {
	base     ORAM
	offset   uint64
	capacity int64
}

// Base returns the ORAM o keeps its blocks in: for a View the ORAM it
// carves its keys out of — in the OneORAM setting, the one tree every
// table's views share — and o itself otherwise.
func Base(o ORAM) ORAM {
	for {
		v, ok := o.(*View)
		if !ok {
			return o
		}
		o = v.base
	}
}

// Shared returns the Path-ORAM that every one of orams is a view of — the
// OneORAM setting of Section 7 — or nil when none is a view, each ORAM a
// tree of its own (the SepORAM setting). ORAMs in mixed settings are
// refused: a view beside an ORAM of its own, or views of two trees.
func Shared(orams ...ORAM) (*PathORAM, error) {
	var tree ORAM
	for i, o := range orams {
		b := Base(o)
		if b == o {
			b = nil
		}
		if i > 0 && b != tree {
			return nil, errors.New("oram: ORAMs in mixed settings: a view of a shared tree beside an ORAM of its own, or views of two trees")
		}
		tree = b
	}
	if tree == nil {
		return nil, nil
	}
	o, ok := tree.(*PathORAM)
	if !ok {
		return nil, fmt.Errorf("oram: views of a %T share no Path-ORAM", tree)
	}
	return o, nil
}

// Local reports whether o keeps nothing on the server — a Path-ORAM of one
// leaf, whose treetop is the whole tree, or a view of one — so that its
// accesses run in the client's stash, move no block and have no share in a
// round.
func Local(o ORAM) bool { return o.AccessesPerOp() == 0 }

// NewView carves [offset, offset+capacity) out of base.
func NewView(base ORAM, offset uint64, capacity int64) (*View, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("oram: view capacity must be positive, got %d", capacity)
	}
	if int64(offset)+capacity > base.Capacity() {
		return nil, fmt.Errorf("oram: view [%d,%d) exceeds base capacity %d",
			offset, int64(offset)+capacity, base.Capacity())
	}
	return &View{base: base, offset: offset, capacity: capacity}, nil
}

func (v *View) check(key uint64) error {
	if key >= uint64(v.capacity) {
		return fmt.Errorf("oram: view key %d out of capacity %d", key, v.capacity)
	}
	return nil
}

// Read implements ORAM.
func (v *View) Read(key uint64) ([]byte, error) {
	if err := v.check(key); err != nil {
		return nil, err
	}
	return v.base.Read(v.offset + key)
}

// Write implements ORAM.
func (v *View) Write(key uint64, payload []byte) error {
	if err := v.check(key); err != nil {
		return err
	}
	return v.base.Write(v.offset+key, payload)
}

// Update implements ORAM.
func (v *View) Update(key uint64, fn func(payload []byte) error) ([]byte, error) {
	if err := v.check(key); err != nil {
		return nil, err
	}
	return v.base.Update(v.offset+key, fn)
}

// DummyAccess implements ORAM; dummies on the shared ORAM are
// indistinguishable no matter which view issues them.
func (v *View) DummyAccess() error { return v.base.DummyAccess() }

// PayloadSize implements ORAM.
func (v *View) PayloadSize() int { return v.base.PayloadSize() }

// Capacity implements ORAM.
func (v *View) Capacity() int64 { return v.capacity }

// AccessesPerOp implements ORAM.
func (v *View) AccessesPerOp() int { return v.base.AccessesPerOp() }

// BlockBytes implements ORAM.
func (v *View) BlockBytes() int { return v.base.BlockBytes() }

// ClientBytes implements ORAM; the base owner accounts for client state, a
// view adds none.
func (v *View) ClientBytes() int64 { return 0 }

// ServerBytes implements ORAM; pro-rated share of the base footprint.
func (v *View) ServerBytes() int64 {
	return v.base.ServerBytes() * v.capacity / v.base.Capacity()
}

// Release ends a pin (Req.Pin) on the base Path-ORAM, at the view's offset.
func (v *View) Release(key uint64, payload []byte) error {
	o, key, err := onTree(&Req{ORAM: v, Key: key})
	if o == nil {
		return errors.Join(err, fmt.Errorf("oram: %T pins no block", v.base))
	}
	return o.Release(key, payload)
}

// Flush settles the base ORAM.
func (v *View) Flush() error { return Flush(v.base) }

// BulkLoad stores payloads[i] under view key i via individual writes. Prefer
// loading through the base ORAM's BulkLoad when building whole databases;
// this path exists for small fixtures.
func (v *View) BulkLoad(payloads [][]byte) error {
	if int64(len(payloads)) > v.capacity {
		return fmt.Errorf("oram: bulk load of %d exceeds view capacity %d", len(payloads), v.capacity)
	}
	for i, p := range payloads {
		if err := v.Write(uint64(i), p); err != nil {
			return err
		}
	}
	return nil
}
