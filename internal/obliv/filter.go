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
	p := planCompaction(ceilDiv(n, v.perBlock), c.unit, c.unit*v.perBlock, ceilDiv(realCount, v.perBlock))
	if p.units > 2 {
		if err := v.PadTo(p.units*c.unit*v.perBlock, pad); err != nil {
			return err
		}
	}
	if err := c.run(p); err != nil {
		return err
	}
	return v.Truncate(realCount)
}

// CompactCost is what CompactReal's schedule spends, read off its plan.
type CompactCost struct {
	Transfers int // leaf and pair transfers
	Blocks    int // blocks read plus blocks written back
	Rounds    int // rounds the transfers travel in
	Closing   int // blocks of the last round's write-back
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
func CompactTransfers(n, mem, keep int) CompactCost {
	if n <= 0 {
		return CompactCost{}
	}
	u := max(1, mem/2)
	// The schedule does not depend on the records per block: plan at one.
	p := planCompaction(n, u, u, keep)
	cost := CompactCost{Transfers: len(p.steps), Rounds: len(p.ends)}
	start := 0
	for _, end := range p.ends {
		cost.Closing = 0
		for _, t := range p.steps[start:end] {
			cost.Closing += p.reads(t)
		}
		cost.Blocks += 2 * cost.Closing
		start = end
	}
	return cost
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// transfer is one transfer of the compaction: it reads units a and b (a
// leaf of one unit has a == b), runs its rule in client memory and writes
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
type transfer struct {
	a, b       int
	leaf       bool
	node, half int
	from, lead int
}

// compactPlan is the schedule of one compaction: its transfers, fixed by
// the vector's block count, the unit and the read budget alone, in rounds.
//
// The transfers are ORCompact's (compact and off lay them out) in the order
// its recursion makes them, the sequence order. Each round takes, in sequence order, every
// transfer whose units are final — no transfer before it in sequence order
// that touches one of its units is still waiting, or runs in the same round
// — until the next such transfer would take the round's reads past the
// budget. A leaf is the first transfer on its units, so it waits only for
// the budget: leaves run in unit order, and by the time a transfer runs,
// every leaf before it in sequence order has run before it, in its round or
// an earlier one. Leaves count the reals of their units, and those counts fix
// every later offset z and count m.
type compactPlan struct {
	unit   int        // blocks per unit
	recs   int        // record slots per unit
	units  int        // units in the vector
	blocks int        // blocks in the vector; a leaf reads none past them
	steps  []transfer // in the order they run
	ends   []int      // round r runs steps[ends[r-1]:ends[r]]
	widest int        // the most blocks a round reads
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
		p.steps = []transfer{{a: 0, b: p.units - 1, leaf: true}}
	default:
		// Padded to its last unit boundary. T(c) ≤ (c/2)·⌈log₂c⌉ + c.
		p.blocks = p.units * unit
		p.steps = make([]transfer, 0, p.units*bits.Len(uint(p.units-1))/2+p.units)
		p.compact(0, p.units)
	}
	p.schedule(max(2*unit, keep))
	return p
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
		p.steps = append(p.steps, transfer{a: lo + k, b: lo + n1 + k, node: lo, half: n2, from: lo})
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
		p.steps = append(p.steps, transfer{a: lo, b: lo + n - 1, leaf: true, from: from, lead: lead})
		return
	}
	h := n / 2
	p.off(lo, h, from, lead)
	p.off(lo+h, h, from, lead)
	for k := 0; k < h; k++ {
		p.steps = append(p.steps, transfer{a: lo + k, b: lo + h + k, node: lo, half: h, from: from, lead: lead})
	}
}

// schedule cuts the transfers, in sequence order, into rounds of at most
// budget blocks read, as compactPlan describes, reordering p.steps in place.
// A round scans the waiting transfers only up to the one that ends it.
func (p *compactPlan) schedule(budget int) {
	p.ends = make([]int, 0, len(p.steps))
	seen := make([]int, p.units)        // the last round whose scan passed the unit
	ran := make([]transfer, 0, p.units) // the round's transfers: their units are disjoint
	for done, round := 0, 1; done < len(p.steps); round++ {
		reads, i := 0, done
		ran = ran[:0]
		for ; i < len(p.steps); i++ {
			t := &p.steps[i]
			final := seen[t.a] != round && seen[t.b] != round
			seen[t.a], seen[t.b] = round, round
			if !final {
				continue
			}
			if reads+p.reads(*t) > budget {
				break
			}
			reads += p.reads(*t)
			ran = append(ran, *t)
			t.a = -1 // ran
		}
		// Move the waiting transfers of steps[done:i] behind the round's,
		// keeping both in sequence order.
		k := i
		for j := i - 1; j >= done; j-- {
			if p.steps[j].a >= 0 {
				k--
				p.steps[k] = p.steps[j]
			}
		}
		done += copy(p.steps[done:], ran)
		p.ends = append(p.ends, done)
		p.widest = max(p.widest, reads)
	}
}

// reads is the number of blocks t reads.
func (p *compactPlan) reads(t transfer) int {
	if !t.leaf {
		return 2 * p.unit
	}
	return min((t.b+1)*p.unit, p.blocks) - t.a*p.unit
}

// appendReads appends the blocks t reads to dst.
func (p *compactPlan) appendReads(dst []int64, t transfer) []int64 {
	span := func(first, count int) {
		for b := first; b < first+count; b++ {
			dst = append(dst, int64(b))
		}
	}
	if t.leaf {
		span(t.a*p.unit, p.reads(t))
	} else {
		span(t.a*p.unit, p.unit)
		span(t.b*p.unit, p.unit)
	}
	return dst
}

// compactor runs a compaction plan over a BlockVector, a round at a time.
// Which blocks each round moves, and in what order, is a function of the
// plan alone; the data decides only which slots swap inside client memory.
// A round's read carries the previous round's sealed write-back, held in the
// vector (the store applies writes before reads). The client opens, swaps
// and seals one transfer at a time, in the round's order, so its plaintext
// is two units; its ciphertext is the round's reads and the previous
// round's write-back, each at most the budget; and it keeps one real count
// a unit.
type compactor struct {
	v       *BlockVector
	isDummy func([]byte) bool
	unit    int // blocks per unit
	payload int // plaintext bytes per block

	reads  []int64 // the current round's blocks
	recv   []byte  // those blocks as read, back to back
	plain  []byte  // one transfer's blocks opened, back to back
	tmp    []byte  // one record, for swaps
	sealed []byte  // the round's write-back, back to back
	reals  []int   // reals[u]: the reals in units [0, u), u a leaf's first unit
	n      int     // records in the vector
}

func newCompactor(v *BlockVector, mem int, isDummy func([]byte) bool) *compactor {
	unit := max(1, mem/(2*v.perBlock))
	payload := v.store.BlockSize() - xcrypto.Overhead
	return &compactor{
		v:       v,
		isDummy: isDummy,
		unit:    unit,
		payload: payload,
		plain:   make([]byte, 0, 2*unit*payload),
		tmp:     make([]byte, v.recSize),
	}
}

// run makes the transfers of p over the vector, a round at a time.
func (c *compactor) run(p *compactPlan) error {
	bs := c.v.store.BlockSize()
	c.reads = make([]int64, 0, p.widest)
	c.recv = make([]byte, 0, p.widest*bs)
	c.sealed = make([]byte, 0, p.widest*bs)
	c.reals = make([]int, p.units+1)
	c.n = c.v.Len()
	start := 0
	for _, end := range p.ends {
		round := p.steps[start:end]
		start = end
		c.reads = c.reads[:0]
		for _, t := range round {
			c.reads = p.appendReads(c.reads, t)
		}
		var err error
		if c.recv, err = c.v.exchange(c.recv[:0], c.reads); err != nil {
			return err
		}
		c.sealed = c.sealed[:0]
		first := 0
		for _, t := range round {
			k := p.reads(t)
			if err := c.load(first, k); err != nil {
				return err
			}
			if t.leaf {
				c.leaf(p, t)
			} else {
				c.pair(p, t)
			}
			if err := c.seal(k); err != nil {
				return err
			}
			first += k
		}
		for k, blk := range c.reads {
			c.v.held = append(c.v.held, blk)
			c.v.heldData = append(c.v.heldData, c.sealed[k*bs:(k+1)*bs])
		}
	}
	return nil
}

// between is the reals in units [lo, hi), both leaf boundaries whose leaves
// have run.
func (c *compactor) between(lo, hi int) int { return c.reals[hi] - c.reals[lo] }

// leaf compacts the record slots of the units [t.a, t.b], reals in order at
// the cyclic slots z, z+1, …, and counts their reals.
func (c *compactor) leaf(p *compactPlan, t transfer) {
	n := min((t.b-t.a+1)*p.recs, c.n-t.a*p.recs)
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
	if z := (t.lead + c.between(t.from, t.a)) % n; z > 0 { // rotate right by z
		c.reverse(0, n)
		c.reverse(0, z)
		c.reverse(z, n)
	}
	c.reals[t.b+1] = c.reals[t.a] + w
}

// pair swaps record slot i of unit t.a with slot i of unit t.b wherever the
// pair's rule, described on transfer, says so.
func (c *compactor) pair(p *compactPlan, t transfer) {
	hr := t.half * p.recs
	z := (t.lead + c.between(t.from, t.node)) % (2 * hr)
	m := c.between(t.node, t.node+t.half)
	s := (z%hr+m >= hr) != (z >= hr)
	first := (t.a - t.node) * p.recs
	cut := (z + m) % hr
	for i := 0; i < p.recs; i++ {
		if s != (first+i >= cut) {
			c.swap(i, p.recs+i)
		}
	}
}

// load opens the k blocks of the round's read from its block first into
// c.plain.
func (c *compactor) load(first, k int) error {
	bs := c.v.store.BlockSize()
	c.plain = c.plain[:0]
	var err error
	for j := first; j < first+k; j++ {
		if c.plain, err = c.v.open(c.plain, c.reads[j], c.recv[j*bs:(j+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// seal seals the k blocks in c.plain onto the round's write-back.
func (c *compactor) seal(k int) error {
	var err error
	for j := 0; j < k; j++ {
		if c.sealed, err = c.v.sealer.SealTo(c.sealed, c.plain[j*c.payload:(j+1)*c.payload]); err != nil {
			return err
		}
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
