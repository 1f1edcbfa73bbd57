package obliv

// span is the blocks [first, first+count) of a BlockVector.
type span struct{ first, count int }

func (s span) end() int { return s.first + s.count }

// transfer is one transfer of a plan: it reads the blocks of one or two
// spans (b is empty for one), runs its plan's rule on them in client memory
// and writes them back. step is its place in sequence order, where its plan
// keeps what the rule needs.
type transfer struct {
	a, b span
	step int
}

// newTransfer returns transfer step over the spans a and b, a before b,
// merged into one span where they share or touch a block.
func newTransfer(step int, a, b span) transfer {
	if b.count > 0 && b.first <= a.end() {
		a.count = max(a.end(), b.end()) - a.first
		b = span{}
	}
	return transfer{a: a, b: b, step: step}
}

// reads is the number of blocks t reads.
func (t transfer) reads() int { return t.a.count + t.b.count }

// mark marks s's blocks as passed by round's scan and reports whether none
// was passed before in that round.
func (s span) mark(seen []int, round int) bool {
	final := true
	for b := s.first; b < s.end(); b++ {
		final = final && seen[b] != round
		seen[b] = round
	}
	return final
}

// appendTo appends s's blocks to dst.
func (s span) appendTo(dst []int64) []int64 {
	for b := s.first; b < s.end(); b++ {
		dst = append(dst, int64(b))
	}
	return dst
}

// plan is a network of block transfers — the compaction's, the external
// sort's or a sweep's — fixed by public sizes alone, cut into rounds.
type plan struct {
	moves   []transfer // in the order they run
	ends    []int      // round r runs moves[ends[r-1]:ends[r]]
	widest  int        // the most blocks a round reads
	largest int        // the most blocks a transfer reads
}

// schedule cuts the transfers, given in sequence order over a vector of
// blocks blocks, into rounds of at most budget blocks read, reordering
// p.moves in place. Each round takes, in sequence order, every transfer
// whose blocks are final — no transfer before it in sequence order that
// reads one of its blocks is still waiting, or runs in the same round — and
// stops before the next such transfer would take the round's reads past the
// budget. A round takes one transfer at least, whatever it reads. Two
// transfers on disjoint blocks commute, so the rounds leave the vector as
// running the transfers in sequence order would. A round scans the waiting
// transfers only up to the one that ends it.
func (p *plan) schedule(blocks, budget int) {
	p.ends = make([]int, 0, len(p.moves))
	seen := make([]int, blocks) // the last round whose scan passed the block
	ran := make([]transfer, 0, min(len(p.moves), blocks))
	for done, round := 0, 1; done < len(p.moves); round++ {
		reads, i := 0, done
		ran = ran[:0]
		for ; i < len(p.moves); i++ {
			t := &p.moves[i]
			finalA, finalB := t.a.mark(seen, round), t.b.mark(seen, round)
			if !finalA || !finalB {
				continue
			}
			k := t.reads()
			if len(ran) > 0 && reads+k > budget {
				break
			}
			reads += k
			p.largest = max(p.largest, k)
			ran = append(ran, *t)
			t.step = -1 // ran
		}
		// Move the waiting transfers of moves[done:i] behind the round's,
		// keeping both in sequence order.
		k := i
		for j := i - 1; j >= done; j-- {
			if p.moves[j].step >= 0 {
				k--
				p.moves[k] = p.moves[j]
			}
		}
		done += copy(p.moves[done:], ran)
		p.ends = append(p.ends, done)
		p.widest = max(p.widest, reads)
	}
}

// Cost is what a plan spends, read off it.
type Cost struct {
	Transfers int // block transfers
	Blocks    int // blocks read plus blocks written back
	Rounds    int // rounds the transfers travel in
	Closing   int // blocks of the last round's write-back
}

// cost reads p's cost off its rounds. The last round's write-back is
// counted in Blocks but not in Rounds: it rides the vector's next exchange.
func (p *plan) cost() Cost {
	c := Cost{Transfers: len(p.moves), Rounds: len(p.ends)}
	start := 0
	for _, end := range p.ends {
		c.Closing = 0
		for _, t := range p.moves[start:end] {
			c.Closing += t.reads()
		}
		c.Blocks += 2 * c.Closing
		start = end
	}
	return c
}

// then is the cost of running c's plan and then o's: c's closing write-back
// rides o's first round.
func (c Cost) then(o Cost) Cost {
	return Cost{Transfers: c.Transfers + o.Transfers, Blocks: c.Blocks + o.Blocks, Rounds: c.Rounds + o.Rounds, Closing: o.Closing}
}

// window is one transfer's blocks opened in client memory, back to back:
// span a's, then span b's.
type window struct {
	plain []byte
	a, b  span

	perBlock, payload, recSize int // the vector's geometry
}

// slot is record slot s of the window, counting from the first block of a.
func (w *window) slot(s int) []byte {
	off := s/w.perBlock*w.payload + s%w.perBlock*w.recSize
	return w.plain[off : off+w.recSize : off+w.recSize]
}

// rec is record i of the vector, which lies in one of the window's blocks.
func (w *window) rec(i int) []byte {
	s := i - w.a.first*w.perBlock
	if s >= w.a.count*w.perBlock {
		s = i - (w.b.first-w.a.count)*w.perBlock
	}
	return w.slot(s)
}

// run makes p's transfers over v, a round at a time: the one round loop of
// this package. Which blocks each round moves, and in what order, is a
// function of the plan alone; the data decides only what rule does inside
// client memory. A round's read carries the previous round's sealed
// write-back, held in the vector (the store applies writes before reads);
// the first carries what the vector held back, and the last round's
// write-back stays held: it rides the vector's next exchange. The client
// opens, applies rule to and seals one transfer at a time, in the round's
// order, so its plaintext is one transfer and its ciphertext the round's
// reads and the previous round's write-back, each at most p.widest blocks.
func (v *BlockVector) run(p *plan, rule func(w *window, t transfer)) error {
	bs, payload := v.store.BlockSize(), v.payload()
	reads := make([]int64, 0, p.widest)
	recv := make([]byte, 0, p.widest*bs)
	sealed := make([]byte, 0, p.widest*bs)
	w := &window{plain: make([]byte, 0, p.largest*payload), perBlock: v.perBlock, payload: payload, recSize: v.recSize}
	start := 0
	for _, end := range p.ends {
		round := p.moves[start:end]
		start = end
		reads = reads[:0]
		for _, t := range round {
			reads = t.b.appendTo(t.a.appendTo(reads))
		}
		var err error
		if recv, err = v.exchange(recv[:0], reads); err != nil {
			return err
		}
		sealed = sealed[:0]
		first := 0
		for _, t := range round {
			k := t.reads()
			w.plain, w.a, w.b = w.plain[:0], t.a, t.b
			for j := first; j < first+k; j++ {
				if w.plain, err = v.open(w.plain, reads[j], recv[j*bs:(j+1)*bs]); err != nil {
					return err
				}
			}
			rule(w, t)
			for j := 0; j < k; j++ {
				if sealed, err = v.sealer.SealTo(sealed, w.plain[j*payload:(j+1)*payload]); err != nil {
					return err
				}
			}
			first += k
		}
		for k, blk := range reads {
			v.held = append(v.held, blk)
			v.heldData = append(v.heldData, sealed[k*bs:(k+1)*bs])
		}
	}
	return nil
}

// Sweep runs fn over the records of v in order — from the last to the first
// when backward — letting it change each record in place: the linear pass of
// ODBJ's degree annotation. Every block is one transfer, and a round reads
// max(1, ⌊mem/B⌋) blocks for mem records of trusted memory, B records a
// block, so the client holds that many blocks and one block's plaintext.
// Which blocks each round reads and writes depends on v.Len() and mem
// alone. What the vector held back rides the first round, and the last
// round's write-back is held in turn (BlockVector.run).
func Sweep(v *BlockVector, mem int, backward bool, fn func(i int, rec []byte)) error {
	n := v.Len()
	blocks := ceilDiv(n, v.perBlock)
	p := &plan{moves: make([]transfer, blocks)}
	for k := range p.moves {
		b := k
		if backward {
			b = blocks - 1 - k
		}
		p.moves[k] = transfer{a: span{b, 1}}
	}
	p.schedule(blocks, mem/v.perBlock)
	return v.run(p, func(w *window, t transfer) {
		lo := t.a.first * v.perBlock
		hi := min(lo+v.perBlock, n)
		for i := range hi - lo {
			if backward {
				i = hi - lo - 1 - i
			}
			fn(lo+i, w.slot(i))
		}
	})
}
