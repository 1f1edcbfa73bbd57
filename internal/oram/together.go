package oram

import "oblivjoin/internal/storage"

// Req is one access of a lockstep group (Together): a read of Key — through
// Update when set, which may rewrite the payload in place exactly as
// ORAM.Update does — or, with Dummy set, an access that touches no block.
// Data and Err are the access's own outcome.
type Req struct {
	ORAM   ORAM
	Key    uint64
	Dummy  bool
	Update func(payload []byte) error

	Data []byte
	Err  error
}

// Together performs the given accesses, one per ORAM, and returns the first
// error among them in request order. When every request addresses its own
// Path-ORAM with client-held positions — the SepORAM setting, where the
// paper's join step retrieves one tuple from every table and each
// retrieval's path is fixed by client state before the step begins — the
// accesses run in lockstep: all position remaps are planned in request
// order, every tree's path download travels in one network round, the
// operations are applied to the stashes, and every write-back now owed
// travels in one more round. Beside ReadBatch's "k paths of one tree in a
// round" this is "one path of each of k trees in a round". Any other group
// (a shared tree, a View, a recursive position map, LinearORAM, RawStore)
// runs its accesses one after another, exactly as separate calls would.
//
// Per-store access sequences are those of the accesses issued one after
// another; only which stores share a round changes, and that grouping is
// decided by the caller's choice to group — so callers must make that
// choice from public information only, and present real and dummy requests
// alike. With EvictionBatch > 1 a tree's share of the first round may carry
// its due flush and it may owe nothing to the second; a round carries
// whatever each scheduler staged, on the schedule each tree keeps on its own.
//
// Failure atomicity is per tree, as for separate accesses: each share of a
// round reports its own error, a tree whose share failed is left as a failed
// access leaves it (stash authoritative, paths pending), and the others
// complete.
func Together(reqs []Req) error {
	var few [4]member
	group := few[:0]
	if len(reqs) > len(few) {
		group = make([]member, 0, len(reqs))
	}
	if group = lockstep(group, reqs); group == nil {
		var first error
		for i := range reqs {
			r := &reqs[i]
			switch {
			case r.Dummy:
				r.Data, r.Err = nil, r.ORAM.DummyAccess()
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

	var fewOps [4]*storage.RoundOp
	ops := fewOps[:0]
	if len(reqs) > len(fewOps) {
		ops = make([]*storage.RoundOp, 0, len(reqs))
	}
	cfg := &group[0].o.cfg

	// Stage 1: plan every access and stage every download; one round.
	flush := false
	for i := range group {
		o, r := group[i].o, &reqs[i]
		r.Data = nil
		if r.Err = o.plan(&o.planBuf, r.Key, nil, r.Dummy, r.Update); r.Err != nil {
			continue
		}
		o.leafBuf[0] = o.planBuf.leaf
		if r.Err = o.sched.prepareFetch(o.leafBuf[:]); r.Err != nil {
			continue
		}
		flush = flush || o.sched.flush
		ops = append(ops, &o.sched.op)
	}
	issueRound(cfg, flush, ops...)

	// Stage 2: settle the downloads, apply the operations, and stage every
	// write-back now owed; one round.
	ops, flush = ops[:0], false
	for i := range group {
		o, r := group[i].o, &reqs[i]
		if r.Err != nil {
			continue
		}
		if r.Err = o.sched.completeFetch(o.leafBuf[:]); r.Err != nil {
			continue
		}
		r.Data, r.Err = o.apply(&o.planBuf)
		owed, err := o.sched.prepareEvict(o.leafBuf[:])
		if err != nil {
			if r.Err == nil {
				r.Err = err
			}
			continue
		}
		if group[i].owed = owed; owed {
			flush = flush || o.sched.flush
			ops = append(ops, &o.sched.op)
		}
	}
	issueRound(cfg, flush, ops...)

	var first error
	for i := range group {
		o, r := group[i].o, &reqs[i]
		if group[i].owed {
			if err := o.sched.completeEvict(); err != nil && r.Err == nil {
				r.Err = err
			}
		}
		if len(o.stash) > o.maxStash {
			o.maxStash = len(o.stash)
		}
		if first == nil {
			first = r.Err
		}
	}
	return first
}

// member is one tree of a lockstep group.
type member struct {
	o    *PathORAM
	owed bool // its write-back travels in the group's second round
}

// lockstep returns the requests' trees, appended to group, when they can run
// in lockstep: every request on a Path-ORAM that holds its own positions
// client-side, all distinct, all reporting to one meter. Otherwise it
// returns nil.
func lockstep(group []member, reqs []Req) []member {
	if len(reqs) < 2 {
		return nil
	}
	for i := range reqs {
		o, ok := reqs[i].ORAM.(*PathORAM)
		if !ok {
			return nil
		}
		if _, flat := o.pos.(*flatPosMap); !flat {
			return nil
		}
		for _, m := range group {
			if m.o == o || m.o.cfg.Meter != o.cfg.Meter {
				return nil
			}
		}
		group = append(group, member{o: o})
	}
	return group
}
