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
// isDummy reports true for; it extends the vector to its last unit boundary.
//
// realCount is known to the client (it counted real outputs while joining)
// and is public under Definition 1, which leaks the output size.
//
// Compaction needs no total order, so this is not a sort: it is Sasy,
// Johnson and Goldberg's ORCompact for any length, run over units of whole
// blocks (see compactor), O(c log c) block transfers for c units where the
// external bitonic sort of Opaque and ObliDB takes O(c log² c). mem records
// of trusted memory hold two units of max(1, ⌊mem/2B⌋) blocks, B records per
// block. Every server access, and the round it travels in, depends only on
// v.Len(), mem and the vector's geometry — CompactTransfers counts them. What
// the vector holds back (its held block, its partly filled last block) rides
// the first transfer, and the last transfer's write-back is held in turn: it
// rides the vector's next exchange, such as the read that decodes the
// result.
//
// Concurrency contract: CompactReal requires exclusive access to v for its
// whole duration — it appends padding and truncates, which the Vector
// implementations only support single-threaded.
func CompactReal(v *BlockVector, mem int, isDummy func([]byte) bool, realCount int, pad []byte) error {
	return compactReal(Sorter{}, v, mem, isDummy, realCount, pad)
}

func compactReal(s Sorter, v *BlockVector, mem int, isDummy func([]byte) bool, realCount int, pad []byte) error {
	n := v.Len()
	if realCount > n {
		return fmt.Errorf("obliv: realCount %d exceeds length %d", realCount, n)
	}
	sp := s.Span.Child("compact")
	sp.SetAttr("n", int64(n))
	sp.SetAttr("real", int64(realCount))
	defer sp.End()
	c := newCompactor(v, mem, isDummy)
	blocks := ceilDiv(n, v.perBlock)
	units := ceilDiv(blocks, c.unit)
	var err error
	if units <= 2 {
		// The whole vector fits the two unit buffers: one transfer.
		_, err = c.leaf(0, blocks, n, 0)
	} else if err = v.PadTo(units*c.unit*v.perBlock, pad); err == nil {
		_, err = c.compact(0, units)
	}
	if err != nil {
		return err
	}
	return v.Truncate(realCount)
}

// CompactTransfers returns the block transfers (reads plus writes) and the
// network rounds CompactReal spends compacting a vector of n blocks with mem
// blocks of trusted memory (its mem records over the records per block),
// not counting the appends that pad the vector to its last unit boundary.
// With u = max(1, ⌊mem/2⌋) blocks per unit the vector is c = ⌈n/u⌉ units. At
// most two units are one transfer of the n blocks: 2n blocks in 1 round.
// Otherwise, with c1 = 2^⌊log₂c⌋ and c2 = c − c1, the transfers follow the
// recursion
//
//	T(c) = T(c2) + (c1/2)·log₂c1 + c2,   T(0) = 0, T(1) = T(2) = 1,
//
// each a round that reads its units and writes them back, 2u blocks a unit.
// The last write-back's blocks are counted, its round is not: it rides the
// vector's next exchange.
func CompactTransfers(n, mem int) (blocks, rounds int) {
	if n <= 0 {
		return 0, 0
	}
	u := max(1, mem/2)
	c := ceilDiv(n, u)
	if c <= 2 {
		return 2 * n, 1
	}
	t, read := compactCost(c)
	return 2 * read * u, t
}

// compactCost returns the transfers compacting c ≥ 1 units takes and the
// units they read, following compactor.compact.
func compactCost(c int) (transfers, units int) {
	if c <= 2 {
		return 1, c
	}
	c1 := 1 << (bits.Len(uint(c)) - 1)
	lg := bits.Len(uint(c1)) - 1
	if c2 := c - c1; c2 > 0 {
		transfers, units = compactCost(c2)
		transfers, units = transfers+c2, units+2*c2
	}
	return transfers + c1/2*lg, units + c1*lg
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// compactor is one run of the compaction over a BlockVector.
//
// compact(lo, n) compacts the n units from unit lo so that their reals land
// at the front of the range, in input order, and returns how many there are
// (ORCompact). Up to two units are one leaf transfer: load them, move the
// reals stably to the front, store. Otherwise, with n1 = 2^⌊log₂n⌋ and
// n2 = n − n1, it compacts the first n2 units (m reals), compacts the last n1
// at offset (r1 − r2 + m) mod r1, r1 and r2 the record counts of the two
// parts, and then makes one pair transfer per unit pair (lo+k, lo+n1+k),
// k < n2, swapping record slot i of the first part with its partner iff
// i ≥ m: the last part's reals land right behind the first part's.
//
// off(lo, n, z), n a power of two, compacts the n units so that their reals
// land in input order at the cyclic record slots z, z+1, … of the range. Up
// to two units are one leaf transfer that also rotates by z. Otherwise, with
// h = n/2 units and hr records per half, it compacts the left half at offset
// z mod hr (m reals), the right half at offset (z+m) mod hr, and joins the
// two with one pair transfer per unit pair (lo+k, lo+h+k): record slot i of
// the half swaps with its partner iff s ≠ (i ≥ (z+m) mod hr), where
// s = ((z mod hr) + m ≥ hr) ≠ (z ≥ hr).
//
// Which blocks each transfer moves, and in what order, is a function of the
// unit count and the unit alone; the data decides only which slots swap
// inside client memory. A transfer is one round: its read carries the
// previous transfer's sealed write-back, held in the vector (the store
// applies writes before reads). Client state is two units of plaintext, the
// pending write-back, and the O(log c) counts on the recursion stack.
type compactor struct {
	v       *BlockVector
	isDummy func([]byte) bool
	unit    int // blocks per unit
	payload int // plaintext bytes per block

	reads  []int64 // the current transfer's blocks
	recv   []byte  // those blocks as read, back to back
	plain  []byte  // those blocks opened, back to back
	tmp    []byte  // one record, for swaps
	sealed []byte  // the pending write-back, back to back
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
		sealed:  make([]byte, 0, 2*unit*bs),
	}
}

// compact is ORCompact over units, described on compactor.
func (c *compactor) compact(lo, n int) (int, error) {
	n1 := 1 << (bits.Len(uint(n)) - 1)
	n2 := n - n1
	if n2 == 0 {
		return c.off(lo, n, 0)
	}
	unitRecs := c.unit * c.v.perBlock
	m, err := c.compact(lo, n2)
	if err != nil {
		return 0, err
	}
	r1, r2 := n1*unitRecs, n2*unitRecs
	m1, err := c.off(lo+n2, n1, (r1-r2+m)%r1)
	if err != nil {
		return 0, err
	}
	for k := 0; k < n2; k++ {
		if err := c.pair(lo+k, lo+n1+k, func(i int) bool { return k*unitRecs+i >= m }); err != nil {
			return 0, err
		}
	}
	return m + m1, nil
}

// off is the offset compaction described on compactor; lo and n count units,
// z record slots.
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
		if err := c.pair(lo+k, lo+h+k, func(i int) bool { return s != (k*unitRecs+i >= t) }); err != nil {
			return 0, err
		}
	}
	return m + m2, nil
}

// pair is one pair transfer: it loads units a and b and swaps record slot i
// of unit a with slot i of unit b wherever swap(i) holds.
func (c *compactor) pair(a, b int, swap func(i int) bool) error {
	unitRecs := c.unit * c.v.perBlock
	c.reads = c.reads[:0]
	c.read(a*c.unit, c.unit)
	c.read(b*c.unit, c.unit)
	if err := c.load(); err != nil {
		return err
	}
	for i := 0; i < unitRecs; i++ {
		if swap(i) {
			c.swap(i, unitRecs+i)
		}
	}
	return c.hold()
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
// what the vector holds back: the pending write-back.
func (c *compactor) load() error {
	var err error
	if c.recv, err = c.v.exchange(c.recv[:0], c.reads); err != nil {
		return err
	}
	bs := c.v.store.BlockSize()
	c.plain = c.plain[:0]
	for k, blk := range c.reads {
		if c.plain, err = c.v.open(c.plain, blk, c.recv[k*bs:(k+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// hold seals the loaded blocks and holds them in the vector as the pending
// write-back; the next load sends it, or, after the last transfer, the
// vector's next exchange.
func (c *compactor) hold() error {
	var err error
	c.sealed = c.sealed[:0]
	for k := range c.reads {
		if c.sealed, err = c.v.sealer.SealTo(c.sealed, c.plain[k*c.payload:(k+1)*c.payload]); err != nil {
			return err
		}
	}
	bs := c.v.store.BlockSize()
	for k, blk := range c.reads {
		c.v.held = append(c.v.held, blk)
		c.v.heldData = append(c.v.heldData, c.sealed[k*bs:(k+1)*bs])
	}
	return nil
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
