package obliv

import (
	"fmt"
	"math/bits"
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
// blocks (see compactPlan), O(c log c) block transfers for c units where the
// external bitonic sort of Opaque and ObliDB takes O(c log² c). mem records
// of trusted memory hold two units of max(1, ⌊mem/2B⌋) blocks, B records per
// block. The transfers travel in rounds of at most max(2 units, ⌈realCount/B⌉)
// blocks read — the prefix the call keeps (see compactPlan). Every server
// access, and the round it travels in, depends only on v.Len(), mem,
// realCount and the vector's geometry — CompactTransfers counts them. What
// the vector holds back (its held block, its partly filled last block) rides
// the first round, and the last round's write-back is held in turn: it rides
// the vector's next exchange, such as the read that decodes the result.
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
	unit := max(1, mem/(2*v.perBlock))
	p := planCompaction(ceilDiv(n, v.perBlock), unit, unit*v.perBlock, ceilDiv(realCount, v.perBlock))
	if p.units > 2 {
		if err := v.PadTo(p.units*unit*v.perBlock, pad); err != nil {
			return err
		}
	}
	if err := v.run(&p.plan, newCompactor(p, v, isDummy).apply); err != nil {
		return err
	}
	return v.Truncate(realCount)
}

// CompactTransfers returns what CompactReal spends compacting a vector of n
// blocks with mem blocks of trusted memory (its mem records over the records
// per block) when it keeps keep blocks (⌈realCount/B⌉), not counting the
// appends that pad the vector to its last unit boundary. With
// u = max(1, ⌊mem/2⌋) blocks per unit the vector is c = ⌈n/u⌉ units. At most
// two units are one transfer of the n blocks. Otherwise, with
// c1 = 2^⌊log₂c⌋ and c2 = c − c1, the transfers follow the recursion
//
//	T(c) = T(c2) + (c1/2)·log₂c1 + c2,   T(0) = 0, T(1) = T(2) = 1,
//
// each reading its units and writing them back, 2u blocks a unit. A round
// carries as many of them as the plan packs under the read budget
// max(2u, keep). The last round's write-back is counted in Blocks but not in
// Rounds: it rides the vector's next exchange.
func CompactTransfers(n, mem, keep int) Cost {
	if n <= 0 {
		return Cost{}
	}
	u := max(1, mem/2)
	// The schedule does not depend on the records per block: plan at one.
	return planCompaction(n, u, u, keep).cost()
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// compactStep is the rule of one transfer of the compaction: it reads units
// a and b (a leaf of one unit has a == b), runs in client memory and writes
// them back.
//
// A leaf covers the units [a, b]. It moves their reals stably to the front
// and rotates them right by z = (lead + reals in units [from, a)) mod its
// record slots.
//
// A pair joins the first half of a node, the units [node, node+half), to
// what follows it: the other half of an offset compaction, or the
// power-of-two part of ORCompact. Unit a = node+k of the first half is
// partnered with unit b. With R record slots a unit, hr = half·R, m the
// reals of the first half and z = (lead + reals in units [from, node)) mod
// 2hr, record slot i of unit a swaps with slot i of unit b iff
// s ≠ (k·R + i ≥ (z+m) mod hr), where s = ((z mod hr) + m ≥ hr) ≠ (z ≥ hr).
// ORCompact's join has lead = 0 and from = node, so z = 0: the slot swaps
// iff k·R + i ≥ m.
type compactStep struct {
	a, b       int
	leaf       bool
	node, half int
	from, lead int
}

// compactPlan is the plan of one compaction: its transfers, fixed by the
// vector's block count, the unit and the read budget alone, in rounds.
//
// The transfers are ORCompact's (compact and off lay them out) in the order
// its recursion makes them, the sequence order, and the rounds are the
// runner's (plan.schedule). A leaf is the first transfer on its units, so it
// waits only for the budget: leaves run in unit order, and by the time a
// transfer runs, every leaf before it in sequence order has run before it,
// in its round or an earlier one. Leaves count the reals of their units, and
// those counts fix every later offset z and count m.
type compactPlan struct {
	plan
	unit   int           // blocks per unit
	recs   int           // record slots per unit
	units  int           // units in the vector
	blocks int           // blocks in the vector; a leaf reads none past them
	steps  []compactStep // in sequence order
}

// planCompaction plans the compaction of a vector of blocks blocks, unit
// blocks and recs record slots to a unit, whose rounds read at most
// max(2 units, keep) blocks.
func planCompaction(blocks, unit, recs, keep int) *compactPlan {
	p := &compactPlan{unit: unit, recs: recs, units: ceilDiv(blocks, unit), blocks: blocks}
	switch {
	case p.units == 0:
	case p.units <= 2:
		// The whole vector fits the two unit buffers: one leaf.
		p.add(compactStep{a: 0, b: p.units - 1, leaf: true})
	default:
		// Padded to its last unit boundary. T(c) ≤ (c/2)·⌈log₂c⌉ + c.
		p.blocks = p.units * unit
		size := p.units*bits.Len(uint(p.units-1))/2 + p.units
		p.steps = make([]compactStep, 0, size)
		p.moves = make([]transfer, 0, size)
		p.compact(0, p.units)
	}
	p.schedule(p.blocks, max(2*unit, keep))
	return p
}

// add appends step s and its transfer.
func (p *compactPlan) add(s compactStep) {
	a, b := span{s.a * p.unit, p.unit}, span{s.b * p.unit, p.unit}
	if s.leaf {
		a, b = span{s.a * p.unit, min((s.b+1)*p.unit, p.blocks) - s.a*p.unit}, span{}
	}
	p.moves = append(p.moves, newTransfer(len(p.steps), a, b))
	p.steps = append(p.steps, s)
}

// compact appends the transfers of ORCompact over the n units from unit lo,
// which land their reals at the front of the range, in input order. With
// n1 = 2^⌊log₂n⌋ and n2 = n − n1: the first n2 units compacted (m reals),
// the last n1 compacted at offset (r1 − r2 + m) mod r1, r1 and r2 the two
// parts' record slots, and one pair per unit pair (lo+k, lo+n1+k), k < n2,
// swapping slot i of the first part with its partner iff i ≥ m: the last
// part's reals land right behind the first part's.
func (p *compactPlan) compact(lo, n int) {
	n1 := 1 << (bits.Len(uint(n)) - 1)
	n2 := n - n1
	if n2 == 0 {
		p.off(lo, n, lo, 0)
		return
	}
	p.compact(lo, n2)
	p.off(lo+n2, n1, lo, (n1-n2)*p.recs)
	for k := 0; k < n2; k++ {
		p.add(compactStep{a: lo + k, b: lo + n1 + k, node: lo, half: n2, from: lo})
	}
}

// off appends the transfers of the offset compaction of the n units from
// unit lo, n a power of two, which land their reals in input order at the
// cyclic record slots z, z+1, … of the range, z = (lead + reals in units
// [from, lo)) mod its record slots. Up to two units are a leaf that rotates
// by z. Otherwise, with h = n/2 units and hr record slots a half: the left
// half at offset z mod hr (m reals), the right half at (z+m) mod hr — the
// same lead and from give both — and one pair per unit pair (lo+k, lo+h+k).
func (p *compactPlan) off(lo, n, from, lead int) {
	if n <= 2 {
		p.add(compactStep{a: lo, b: lo + n - 1, leaf: true, from: from, lead: lead})
		return
	}
	h := n / 2
	p.off(lo, h, from, lead)
	p.off(lo+h, h, from, lead)
	for k := 0; k < h; k++ {
		p.add(compactStep{a: lo + k, b: lo + h + k, node: lo, half: h, from: from, lead: lead})
	}
}

// compactor is the client side of a compaction: the rule the runner applies
// to each transfer's blocks, and one real count a unit. The data decides
// only which slots swap inside client memory.
type compactor struct {
	*compactPlan
	isDummy func([]byte) bool
	n       int    // records in the vector
	tmp     []byte // one record, for swaps
	reals   []int  // reals[u]: the reals in units [0, u), u a leaf's first unit
	w       *window
}

func newCompactor(p *compactPlan, v *BlockVector, isDummy func([]byte) bool) *compactor {
	return &compactor{compactPlan: p, isDummy: isDummy, n: v.Len(), tmp: make([]byte, v.recSize), reals: make([]int, p.units+1)}
}

// apply runs the rule of transfer t on its blocks.
func (c *compactor) apply(w *window, t transfer) {
	c.w = w
	if s := c.steps[t.step]; s.leaf {
		c.leaf(s)
	} else {
		c.pair(s)
	}
}

// between is the reals in units [lo, hi), both leaf boundaries whose leaves
// have run.
func (c *compactor) between(lo, hi int) int { return c.reals[hi] - c.reals[lo] }

// leaf compacts the record slots of the units [t.a, t.b], reals in order at
// the cyclic slots z, z+1, …, and counts their reals.
func (c *compactor) leaf(t compactStep) {
	n := min((t.b-t.a+1)*c.recs, c.n-t.a*c.recs)
	// Slots before w hold the reals seen so far, in order; slots [w, s) hold
	// dummies, so moving a real down past them keeps the order.
	w := 0
	for s := 0; s < n; s++ {
		if !c.isDummy(c.w.slot(s)) {
			if s != w {
				c.swap(s, w)
			}
			w++
		}
	}
	if z := (t.lead + c.between(t.from, t.a)) % n; z > 0 { // rotate right by z
		c.reverse(0, n)
		c.reverse(0, z)
		c.reverse(z, n)
	}
	c.reals[t.b+1] = c.reals[t.a] + w
}

// pair swaps record slot i of unit t.a with slot i of unit t.b wherever the
// pair's rule, described on compactStep, says so.
func (c *compactor) pair(t compactStep) {
	hr := t.half * c.recs
	z := (t.lead + c.between(t.from, t.node)) % (2 * hr)
	m := c.between(t.node, t.node+t.half)
	s := (z%hr+m >= hr) != (z >= hr)
	first := (t.a - t.node) * c.recs
	cut := (z + m) % hr
	for i := 0; i < c.recs; i++ {
		if s != (first+i >= cut) {
			c.swap(i, c.recs+i)
		}
	}
}

func (c *compactor) swap(i, j int) {
	a, b := c.w.slot(i), c.w.slot(j)
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
