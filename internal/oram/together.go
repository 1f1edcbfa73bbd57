package oram

import (
	"slices"

	"oblivjoin/internal/storage"
)

// Req is one access of a lockstep group (Together): a read of Key — through
// Update when set, which may rewrite the payload in place exactly as
// ORAM.Update does — a write of Put to Key when Put is set, as ORAM.Write
// does, or, with Dummy set, an access that touches no block. Data and Err
// are the access's own outcome.
//
// Pin (on a Path-ORAM, or a View over one) keeps the block in the stash,
// placed by no write-back until the caller Releases it, possibly edited: a
// write-back B-tree descent so edits its path without an access.
//
// On a tree that keeps no position map (NewTagged) a real request carries
// the block's positions, which its caller holds: Pos is the path to fetch
// (for a Put of a new block, any fresh tag) and NewPos the tag the block
// moves to (RandomPos). Other ORAMs ignore them.
type Req struct {
	ORAM        ORAM
	Key         uint64
	Dummy       bool
	Update      func(payload []byte) error
	Put         []byte
	Pin         bool
	Pos, NewPos uint32

	Data []byte
	Err  error
}

// Together performs the given accesses and returns the first error among
// them in request order. When every request addresses a Path-ORAM,
// directly or through a View, all on one meter — the SepORAM setting, where
// the paper's join step retrieves one tuple from every table and each
// retrieval's path is fixed by client state before the step begins, or a
// single retrieval on the OneORAM setting's shared tree — the accesses run
// in lockstep: all position remaps are planned in request order, every
// tree's share — its path downloads, carrying the write-back the tree has
// queued — travels in one network round, and the operations are applied to
// the stashes. A tree serves one request of the round, or two through one
// ORAM handle that name distinct blocks (a dummy names none): a descent's
// access beside the next descent's root, read ahead. Its share then
// downloads both paths in full, in request order, the operations apply in
// that order, and both paths are queued for write-back. A group of plain
// reads and dummies on RawStores, all on one meter, is one round too: a
// single-block share per read and none per dummy. Any other group (a tree
// named twice through two handles, or for one block, or three times; trees
// on separate meters; a write, update or pin on a RawStore) runs its
// accesses one after another, exactly as separate calls would.
//
// Per-store access sequences are those of the accesses issued one after
// another, but for the write-back of a tree's two paths, which follows both
// downloads instead of coming between them; only which accesses share a
// round changes, and that grouping is decided by the caller's choice to
// group — so callers must make that choice from public information only,
// and present real and dummy requests alike. Whether a tree's share carries
// a write-back is its own scheduler's business, decided by how many paths
// it has queued (EvictionBatch).
//
// ride are shares of other stores (nil entries are skipped) that travel in
// the round too, after the trees' shares: writes that have been waiting for
// a round to carry them. A single request on such a tree is a round of one
// tree, so it carries them as well, and so does a raw round. A group that
// runs one access after another issues none of them, and leaves each
// untouched.
//
// A tree of one leaf keeps no level on the server (Levels() == 0): its
// accesses run in the stash and have no share. A lockstep group of such
// trees alone issues no round, and leaves its ride shares untouched too.
//
// Failure atomicity is per tree, as for separate accesses: each share of a
// round reports its own error, to every request it serves; a tree whose
// share failed is left as a failed access leaves it (stash authoritative,
// paths pending), and the others complete. A ride share's outcome is its
// own (RoundOp.Err).
func Together(reqs []Req, ride ...*storage.RoundOp) error {
	var few [4]*PathORAM
	trees := few[:0]
	if len(reqs) > len(few) {
		trees = make([]*PathORAM, 0, len(reqs))
	}
	if trees = lockstep(trees, reqs); trees == nil {
		if rawRound(reqs, ride) {
			return firstErr(reqs)
		}
		for i := range reqs {
			r := &reqs[i]
			o, key, _ := onTree(r) // a key outside its view fails below
			switch {
			case r.Dummy:
				r.Data, r.Err = nil, r.ORAM.DummyAccess()
			case r.Put != nil:
				r.Data, r.Err = nil, r.ORAM.Write(r.Key, r.Put)
			case r.Pin && o != nil:
				r.Data, r.Err = o.access(accessPlan{key: key, update: r.Update, pin: true})
			case r.Update != nil:
				r.Data, r.Err = r.ORAM.Update(r.Key, r.Update)
			default:
				r.Data, r.Err = r.ORAM.Read(r.Key)
			}
		}
		return firstErr(reqs)
	}

	var fewOps [8]*storage.RoundOp
	ops := fewOps[:0]
	if len(reqs)+len(ride) > len(fewOps) {
		ops = make([]*storage.RoundOp, 0, len(reqs)+len(ride))
	}

	// A tree never loaded uploads its empty buckets first, in rounds of its
	// own, so that staging sends nothing.
	for i, o := range trees {
		reqs[i].Data, reqs[i].Err = nil, o.ensureUploaded()
		o.planned = 0
	}

	// Plan every access, in request order, then stage every tree's download
	// once; one round.
	for i, o := range trees {
		r := &reqs[i]
		if r.Err != nil {
			continue
		}
		_, key, _ := onTree(r) // lockstep has resolved every request
		var put []byte
		if r.Put != nil && !r.Dummy {
			if put, r.Err = o.padded(r.Put); r.Err != nil {
				continue
			}
		}
		p := &o.plans[o.planned]
		if r.Err = o.planReq(p, r, key, put); r.Err != nil {
			continue
		}
		p.req = i
		o.planned++
	}
	for i, o := range trees {
		if !o.firstIn(trees, i) || o.planned == 0 || !o.stored() {
			continue
		}
		if err := o.sched.prepareFetch(o.plans[:o.planned]); err != nil {
			o.unplanAll(reqs, err)
			continue
		}
		ops = append(ops, &o.sched.op)
	}
	if len(ops) > 0 {
		for _, op := range ride {
			if op != nil {
				ops = append(ops, op)
			}
		}
		issueRound(&trees[0].cfg, false, ops...)
	}

	// Settle the downloads, apply the operations, and queue the fetched
	// paths: their write-backs ride each tree's next download.
	for i, o := range trees {
		if !o.firstIn(trees, i) || o.planned == 0 {
			continue
		}
		if o.stored() {
			if err := o.sched.completeFetch(); err != nil {
				o.unplanAll(reqs, err)
				continue
			}
		}
		for k := range o.plans[:o.planned] {
			p := &o.plans[k]
			reqs[p.req].Data, reqs[p.req].Err = o.finish(p)
		}
	}
	return firstErr(reqs)
}

// firstErr returns the first error among reqs, in request order.
func firstErr(reqs []Req) error {
	for i := range reqs {
		if reqs[i].Err != nil {
			return reqs[i].Err
		}
	}
	return nil
}

// rawRound performs reqs as one round when every request is a plain read or
// a dummy on a RawStore, all on one meter — the raw baseline's join step: a
// single-block share per read, none per dummy, then the ride shares. It
// reports false, having done nothing, for any other group.
func rawRound(reqs []Req, ride []*storage.RoundOp) bool {
	if len(reqs) == 0 {
		return false
	}
	var meter *storage.Meter
	for i := range reqs {
		r := &reqs[i]
		raw, ok := r.ORAM.(*RawStore)
		if !ok || r.Put != nil || r.Update != nil || r.Pin || i > 0 && raw.meter != meter {
			return false
		}
		meter = raw.meter
	}
	shares := make([]storage.RoundOp, len(reqs))
	var ops []*storage.RoundOp
	for i := range reqs {
		r := &reqs[i]
		r.Data, r.Err = nil, nil
		if !r.Dummy {
			shares[i] = storage.RoundOp{Store: r.ORAM.(*RawStore).store, ReadIdxs: []int64{int64(r.Key)}}
			ops = append(ops, &shares[i])
		}
	}
	for _, op := range ride {
		if op != nil {
			ops = append(ops, op)
		}
	}
	if len(ops) > 0 {
		storage.DoRound(meter, ops...)
	}
	for i := range reqs {
		if !reqs[i].Dummy {
			reqs[i].Data, reqs[i].Err = shares[i].Out, shares[i].Err
		}
	}
	return true
}

// firstIn reports whether trees[i], o, is o's first place in trees: the
// request whose turn stages and settles the tree's share.
func (o *PathORAM) firstIn(trees []*PathORAM, i int) bool {
	return slices.Index(trees, o) == i
}

// unplanAll takes back the tree's planned accesses after its share failed
// with err, which each of their requests reports.
func (o *PathORAM) unplanAll(reqs []Req, err error) {
	for k := o.planned - 1; k >= 0; k-- {
		o.unplan(&o.plans[k])
		reqs[o.plans[k].req].Err = err
	}
	o.planned = 0
}

// Settle flushes the given ORAMs (Flush), with the write-backs the
// Path-ORAMs among them still have queued travelling in a single round,
// shares in the order given: the end of a query costs one round, not one per
// tree. Which trees have a write-back queued depends on how many accesses
// each has served since it was last settled, which is public; the order is
// the caller's and must be canonical. Trees on a meter other than the first
// tree's, and other ORAMs, are flushed on their own, where they stand in the
// order. A tree with a block pinned fails. Every ORAM is attempted; the
// first error is returned.
func Settle(orams ...ORAM) error {
	var few [8]*PathORAM
	group := few[:0] // the trees with a share in the round
	var first error
	for _, x := range orams {
		o, ok := x.(*PathORAM)
		if ok && slices.Contains(group, o) {
			continue
		}
		var err error
		if !ok || (len(group) > 0 && group[0].cfg.Meter != o.cfg.Meter) {
			err = Flush(x)
		} else if owed, perr := o.sched.prepareFlush(); owed {
			group = append(group, o)
		} else if err = perr; err == nil {
			o.releaseKnown()
		}
		if first == nil {
			first = err
		}
	}
	if len(group) == 0 {
		return first
	}
	var fewOps [8]*storage.RoundOp
	ops := fewOps[:0]
	for _, o := range group {
		ops = append(ops, &o.sched.op)
	}
	issueRound(&group[0].cfg, true, ops...)
	for _, o := range group {
		err := o.sched.completeFlush()
		if err == nil {
			o.releaseKnown()
		} else if first == nil {
			first = err
		}
	}
	return first
}

// lockstep returns the requests' trees, request i's at i, appended to
// group, when they can run in lockstep: every request on a Path-ORAM
// (directly or through a View), all reporting to one meter, and no tree
// named more than twice — twice only through one ORAM handle, for two
// distinct blocks. Otherwise it returns nil.
func lockstep(group []*PathORAM, reqs []Req) []*PathORAM {
	if len(reqs) == 0 {
		return nil
	}
	for i := range reqs {
		r := &reqs[i]
		o, key, _ := onTree(r)
		if o == nil || (len(group) > 0 && group[0].cfg.Meter != o.cfg.Meter) {
			return nil
		}
		if at := slices.Index(group, o); at >= 0 {
			q := &reqs[at]
			_, qkey, _ := onTree(q)
			if q.ORAM != r.ORAM || !q.Dummy && !r.Dummy && qkey == key || slices.Contains(group[at+1:], o) {
				return nil
			}
		}
		group = append(group, o)
	}
	return group
}

// onTree returns the Path-ORAM a request runs on and the key it addresses
// there: a View's requests address its base tree at the view's offset (the
// OneORAM setting's tables are views of one tree). The tree is nil when the
// request does not run on a Path-ORAM, and the error reports a key outside
// its view.
func onTree(r *Req) (*PathORAM, uint64, error) {
	x, key := r.ORAM, r.Key
	for {
		v, ok := x.(*View)
		if !ok {
			break
		}
		if !r.Dummy {
			if err := v.check(key); err != nil {
				return nil, 0, err
			}
		}
		x, key = v.base, key+v.offset
	}
	o, _ := x.(*PathORAM)
	return o, key, nil
}
