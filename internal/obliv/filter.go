package obliv

import (
	"fmt"
	"math/bits"

	"oblivjoin/internal/xcrypto"
)

// CompactReal obliviously moves all real records in front of all dummy
// records, keeping the reals in their input order, and truncates the vector
// to realCount records — the paper's "obliviously filter out dummy records
// from T_out" final step of every join algorithm. pad must be a record that
// isDummy reports true for; it extends the vector to the shape the
// compaction requires.
//
// realCount is known to the client (it counted real outputs while joining)
// and is public under Definition 1, which leaks the output size.
//
// Compaction needs no total order, so this is not a sort: it is the offset
// ORCompact of Sasy, Johnson and Goldberg run over units of whole blocks
// (see compactor), O(c log c) block transfers for c units where the external
// bitonic sort of Opaque and ObliDB takes O(c log² c). mem records of
// trusted memory hold two units of max(1, ⌊mem/2B⌋) blocks, B records per
// block. Every server access, and the round it travels in, depends only on
// v.Len(), mem and the vector's geometry — CompactTransfers counts them.
//
// Concurrency contract: CompactReal requires exclusive access to v for its
// whole duration — it appends padding and truncates, which the Vector
// implementations only support single-threaded.
func CompactReal(v *BlockVector, mem int, isDummy func([]byte) bool, realCount int, pad []byte) error {
	return compactReal(Sorter{}, v, mem, isDummy, realCount, pad)
}

func compactReal(s Sorter, v *BlockVector, mem int, isDummy func([]byte) bool, realCount int, pad []byte) error {
	if realCount > v.Len() {
		return fmt.Errorf("obliv: realCount %d exceeds length %d", realCount, v.Len())
	}
	sp := s.Span.Child("compact")
	sp.SetAttr("n", int64(v.Len()))
	sp.SetAttr("real", int64(realCount))
	defer sp.End()
	if err := v.Flush(); err != nil {
		return err
	}
	c := newCompactor(v, mem, isDummy)
	n := v.Len()
	blocks := ceilDiv(n, v.perBlock)
	if units := compactUnits(blocks, c.unit); units == 0 {
		// The whole vector fits the two unit buffers: one transfer.
		if _, err := c.leaf(0, blocks, n, 0); err != nil {
			return err
		}
	} else {
		if err := v.PadTo(units*c.unit*v.perBlock, pad); err != nil {
			return err
		}
		if _, err := c.off(0, units, 0); err != nil {
			return err
		}
	}
	if err := c.settle(); err != nil {
		return err
	}
	return v.Truncate(realCount)
}

// CompactTransfers returns the block transfers (reads plus writes) and the
// network rounds CompactReal spends compacting a vector of n blocks with mem
// blocks of trusted memory (its mem records over the records per block),
// not counting the appends that pad the vector first. With u = max(1,
// ⌊mem/2⌋) blocks per unit, a vector of at most two units is one transfer
// and a closing write-back: 2n blocks in 2 rounds. A longer one is padded to
// c = 2^k ≥ 4 units and costs 2·c·u·log₂c blocks in (c/2)·log₂c + 1 rounds.
func CompactTransfers(n, mem int) (blocks, rounds int) {
	if n <= 0 {
		return 0, 0
	}
	u := max(1, mem/2)
	c := compactUnits(n, u)
	if c == 0 {
		return 2 * n, 2
	}
	lg := bits.Len(uint(c)) - 1
	return 2 * c * u * lg, c/2*lg + 1
}

// compactUnits returns the power-of-two unit count an n-block vector is
// padded to, or 0 when it fits the two unit buffers and needs no recursion.
func compactUnits(n, unit int) int {
	if n <= 2*unit {
		return 0
	}
	return NextPow2(ceilDiv(n, unit))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// compactor is one run of the offset compaction over a BlockVector.
//
// off(lo, n, z) compacts the n units from unit lo so that their reals land
// in input order at the cyclic record slots z, z+1, … of the range, and
// returns how many there are. Up to two units are one leaf transfer: load
// them, move the reals stably to the front, rotate by z, store. Otherwise,
// with h = n/2 units and hr records per half, compact the left half at offset
// z mod hr (m reals), the right half at offset (z+m) mod hr, and join the
// two with one pair transfer per unit pair (lo+k, lo+h+k): record slot i of
// the half swaps with its partner iff s ≠ (i ≥ (z+m) mod hr), where
// s = ((z mod hr) + m ≥ hr) ≠ (z ≥ hr). The top call is off(0, c, 0).
//
// Which blocks each transfer moves, and in what order, is a function of c
// and the unit alone; the data decides only which slots swap inside client
// memory. A transfer is one round: its read carries the previous transfer's
// sealed write-back (the store applies writes before reads), and one closing
// write-back round ends the run. Client state is two units of plaintext, the
// pending write-back, and the O(log c) counts on the recursion stack.
type compactor struct {
	v       *BlockVector
	isDummy func([]byte) bool
	unit    int // blocks per unit
	payload int // plaintext bytes per block

	reads  []int64  // the current transfer's blocks
	recv   []byte   // those blocks as read, back to back
	plain  []byte   // those blocks opened, back to back
	tmp    []byte   // one record, for swaps
	writes []int64  // the pending write-back's blocks
	sealed []byte   // the pending write-back, back to back
	data   [][]byte // sealed, carved per block
}

func newCompactor(v *BlockVector, mem int, isDummy func([]byte) bool) *compactor {
	unit := max(1, mem/(2*v.perBlock))
	bs := v.store.BlockSize()
	payload := bs - xcrypto.Overhead
	return &compactor{
		v:       v,
		isDummy: isDummy,
		unit:    unit,
		payload: payload,
		reads:   make([]int64, 0, 2*unit),
		recv:    make([]byte, 0, 2*unit*bs),
		plain:   make([]byte, 0, 2*unit*payload),
		tmp:     make([]byte, v.recSize),
		writes:  make([]int64, 0, 2*unit),
		sealed:  make([]byte, 0, 2*unit*bs),
		data:    make([][]byte, 0, 2*unit),
	}
}

// off is the recursion described on compactor; lo and n count units, z
// record slots.
func (c *compactor) off(lo, n, z int) (int, error) {
	unitRecs := c.unit * c.v.perBlock
	if n <= 2 {
		return c.leaf(lo*c.unit, n*c.unit, n*unitRecs, z)
	}
	h := n / 2
	hr := h * unitRecs
	m, err := c.off(lo, h, z%hr)
	if err != nil {
		return 0, err
	}
	m2, err := c.off(lo+h, h, (z+m)%hr)
	if err != nil {
		return 0, err
	}
	s := (z%hr+m >= hr) != (z >= hr)
	t := (z + m) % hr
	for k := 0; k < h; k++ {
		c.reads = c.reads[:0]
		c.read((lo+k)*c.unit, c.unit)
		c.read((lo+h+k)*c.unit, c.unit)
		if err := c.load(); err != nil {
			return 0, err
		}
		for j := 0; j < unitRecs; j++ {
			if s != (k*unitRecs+j >= t) {
				c.swap(j, unitRecs+j)
			}
		}
		if err := c.hold(); err != nil {
			return 0, err
		}
	}
	return m + m2, nil
}

// leaf compacts the n records of the blocks [first, first+blocks) in one
// transfer, reals in order at the cyclic slots z, z+1, …, and returns how
// many reals there are.
func (c *compactor) leaf(first, blocks, n, z int) (int, error) {
	c.reads = c.reads[:0]
	c.read(first, blocks)
	if err := c.load(); err != nil {
		return 0, err
	}
	// Slots before w hold the reals seen so far, in order; slots [w, s) hold
	// dummies, so moving a real down past them keeps the order.
	w := 0
	for s := 0; s < n; s++ {
		if !c.isDummy(c.rec(s)) {
			if s != w {
				c.swap(s, w)
			}
			w++
		}
	}
	if z > 0 { // rotate right by z
		c.reverse(0, n)
		c.reverse(0, z)
		c.reverse(z, n)
	}
	return w, c.hold()
}

// read adds the blocks [first, first+count) to the next transfer.
func (c *compactor) read(first, count int) {
	for b := first; b < first+count; b++ {
		c.reads = append(c.reads, int64(b))
	}
}

// load reads the blocks in c.reads into c.plain, in one round that carries
// the pending write-back.
func (c *compactor) load() error {
	var err error
	c.recv, err = c.v.store.ExchangeTo(c.recv[:0], c.writes, c.data, c.reads)
	if err != nil {
		return err
	}
	c.writes, c.data = c.writes[:0], c.data[:0]
	bs := c.v.store.BlockSize()
	c.plain = c.plain[:0]
	for k, blk := range c.reads {
		if c.plain, err = c.v.open(c.plain, blk, c.recv[k*bs:(k+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// hold seals the loaded blocks as the pending write-back; the next load, or
// settle, sends it.
func (c *compactor) hold() error {
	var err error
	c.sealed = c.sealed[:0]
	for k, blk := range c.reads {
		if c.sealed, err = c.v.sealer.SealTo(c.sealed, c.plain[k*c.payload:(k+1)*c.payload]); err != nil {
			return err
		}
		c.writes = append(c.writes, blk)
	}
	bs := c.v.store.BlockSize()
	for k := range c.writes {
		c.data = append(c.data, c.sealed[k*bs:(k+1)*bs])
	}
	return nil
}

// settle sends the last write-back in a round of its own.
func (c *compactor) settle() error {
	_, err := c.v.store.ExchangeTo(nil, c.writes, c.data, nil)
	c.writes, c.data = c.writes[:0], c.data[:0]
	return err
}

// rec is record slot s of the loaded blocks.
func (c *compactor) rec(s int) []byte {
	off := s/c.v.perBlock*c.payload + s%c.v.perBlock*c.v.recSize
	return c.plain[off : off+c.v.recSize]
}

func (c *compactor) swap(i, j int) {
	a, b := c.rec(i), c.rec(j)
	copy(c.tmp, a)
	copy(a, b)
	copy(b, c.tmp)
}

// reverse reverses record slots [i, j).
func (c *compactor) reverse(i, j int) {
	for j--; i < j; i, j = i+1, j-1 {
		c.swap(i, j)
	}
}
