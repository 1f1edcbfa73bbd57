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

// Together performs the given accesses, one per ORAM, and returns the first
// error among them in request order. When every request addresses its own
// Path-ORAM, directly or through a View, all on one meter — the SepORAM
// setting, where the paper's join step retrieves one tuple from every table
// and each retrieval's path is fixed by client state before the step
// begins, or a single retrieval on the OneORAM setting's shared tree — the
// accesses run in lockstep: all position remaps are planned in request
// order, every tree's path download — each carrying the write-back its tree
// has queued — travels in one network round, and the operations are applied
// to the stashes: one path of each of k trees in a round. Any other group
// (two requests on one tree, trees on separate meters, a RawStore) runs its
// accesses one after another, exactly as separate calls would.
//
// Per-store access sequences are those of the accesses issued one after
// another; only which stores share a round changes, and that grouping is
// decided by the caller's choice to group — so callers must make that
// choice from public information only, and present real and dummy requests
// alike. Whether a tree's share carries a write-back is its own scheduler's
// business, decided by how many paths it has queued (EvictionBatch).
//
// ride are shares of other stores (nil entries are skipped) that travel in
// the round too, after the trees' shares: writes that have been waiting for
// a round to carry them. A single request on such a tree is a round of one
// tree, so it carries them as well. A group that runs one access after
// another issues none of them, and leaves each untouched.
//
// Failure atomicity is per tree, as for separate accesses: each share of a
// round reports its own error, a tree whose share failed is left as a failed
// access leaves it (stash authoritative, paths pending), and the others
// complete. A ride share's outcome is its own (RoundOp.Err).
func Together(reqs []Req, ride ...*storage.RoundOp) error {
	var few [4]*PathORAM
	group := few[:0]
	if len(reqs) > len(few) {
		group = make([]*PathORAM, 0, len(reqs))
	}
	if group = lockstep(group, reqs); group == nil {
		var first error
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
			if first == nil {
				first = r.Err
			}
		}
		return first
	}

	var fewOps [8]*storage.RoundOp
	ops := fewOps[:0]
	if len(reqs)+len(ride) > len(fewOps) {
		ops = make([]*storage.RoundOp, 0, len(reqs)+len(ride))
	}

	// Plan every access and stage every download; one round.
	for i, o := range group {
		r := &reqs[i]
		r.Data = nil
		_, key, _ := onTree(r) // lockstep has resolved every request
		var put []byte
		if r.Put != nil && !r.Dummy {
			if put, r.Err = o.padded(r.Put); r.Err != nil {
				continue
			}
		}
		if r.Err = o.planReq(r, key, put); r.Err != nil {
			continue
		}
		if r.Err = o.sched.prepareFetch(o.planBuf.leaf); r.Err != nil {
			o.unplan(&o.planBuf)
			continue
		}
		ops = append(ops, &o.sched.op)
	}
	for _, op := range ride {
		if op != nil {
			ops = append(ops, op)
		}
	}
	issueRound(&group[0].cfg, false, ops...)

	// Settle the downloads, apply the operations, and queue the fetched
	// paths: their write-backs ride each tree's next download.
	var first error
	for i, o := range group {
		r := &reqs[i]
		if r.Err == nil {
			if r.Err = o.sched.completeFetch(); r.Err != nil {
				o.unplan(&o.planBuf)
			} else {
				r.Data, r.Err = o.finish(&o.planBuf)
			}
		}
		if first == nil {
			first = r.Err
		}
	}
	return first
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

// lockstep returns the requests' trees, appended to group, when they can run
// in lockstep: every request on a Path-ORAM (directly or through a View), all
// distinct, all reporting to one meter. Otherwise it returns nil.
func lockstep(group []*PathORAM, reqs []Req) []*PathORAM {
	if len(reqs) == 0 {
		return nil
	}
	for i := range reqs {
		o, _, _ := onTree(&reqs[i])
		if o == nil || slices.Contains(group, o) ||
			(len(group) > 0 && group[0].cfg.Meter != o.cfg.Meter) {
			return nil
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
