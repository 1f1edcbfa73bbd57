package baseline

import (
	"fmt"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
)

// newWVec creates a server-resident vector of working records.
func (o Options) newWVec(name string, tupSize int) (*obliv.BlockVector, error) {
	return obliv.NewBlockVector(name, 64, wheader+tupSize, o.blockSize(), o.Meter, o.Sealer)
}

// scanW runs fn over every record of v, forward or backward, letting it
// mutate the record in place: obliv.Sweep, a fixed sequential pass.
func scanW(v *obliv.BlockVector, mem int, backward bool, fn func(idx int, r *wrec)) error {
	return obliv.Sweep(v, mem, backward, func(i int, rec []byte) {
		r := unmarshalW(rec)
		fn(i, &r)
		copy(rec, marshalW(&r, len(r.tup)))
	})
}

// scanEmitW streams src forward, emitting exactly one record per input into
// dst (real or dummy), preserving obliviousness.
func scanEmitW(src, dst *obliv.BlockVector, mem int, fn func(idx int, r wrec) wrec) error {
	n := src.Len()
	if mem < 1 {
		mem = 1
	}
	tupSize := dst.RecordSize() - wheader
	for lo := 0; lo < n; lo += mem {
		cnt := mem
		if lo+cnt > n {
			cnt = n - lo
		}
		recs, err := src.LoadRange(lo, cnt)
		if err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			out := fn(lo+i, unmarshalW(recs[i]))
			if len(out.tup) == 0 {
				out.tup = make([]byte, tupSize)
			}
			if err := dst.Append(marshalW(&out, tupSize)); err != nil {
				return err
			}
		}
	}
	return dst.Flush()
}

// sortW obliviously sorts v by less, padding with +infinity sentinels to the
// external sort's required shape and truncating back.
func sortW(v *obliv.BlockVector, mem int, less func(a, b wrec) bool) error {
	n := v.Len()
	padded, _ := obliv.ChunkShape(n, mem)
	tupSize := v.RecordSize() - wheader
	pad := marshalW(&wrec{flag: wflagDummy, key: posInf, pos: posInf, seq: posInf, tup: make([]byte, tupSize)}, tupSize)
	if err := v.PadTo(padded, pad); err != nil {
		return err
	}
	lessB := func(a, b []byte) bool { return less(unmarshalW(a), unmarshalW(b)) }
	if err := obliv.SortVector(v, mem, lessB); err != nil {
		return err
	}
	return v.Truncate(n)
}

// expandW performs the oblivious expansion (Goodrich-style distribution +
// fill-forward): headers carry pos = first output slot (posInf for degree
// zero); slots is the output length. copyFn derives the c-th copy of a
// header (c counts copies emitted since that header). Emits exactly `slots`
// records into a fresh vector.
func (o Options) expandW(name string, src *obliv.BlockVector, slots int64, mem int,
	copyFn func(h wrec, c int64) wrec) (*obliv.BlockVector, error) {
	tupSize := src.RecordSize() - wheader
	work, err := o.newWVec(name+".dist", tupSize)
	if err != nil {
		return nil, err
	}
	// Distribution input: all source records + one placeholder per slot.
	if err := scanEmitW(src, work, mem, func(_ int, r wrec) wrec {
		if r.flag != wflagReal || r.pos == posInf {
			r.flag = wflagDummy
			r.pos = posInf
			r.seq = posInf
		}
		return r
	}); err != nil {
		return nil, err
	}
	for p := int64(0); p < slots; p++ {
		ph := wrec{flag: wflagPlaceholder, pos: p, tup: make([]byte, tupSize)}
		if err := work.Append(marshalW(&ph, tupSize)); err != nil {
			return nil, err
		}
	}
	if err := work.Flush(); err != nil {
		return nil, err
	}
	// Sort by (pos, header-before-placeholder); dummies (+inf) go last.
	if err := sortW(work, mem, func(a, b wrec) bool {
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.flag == wflagReal && b.flag == wflagPlaceholder
	}); err != nil {
		return nil, err
	}
	// Fill-forward: placeholders copy the last seen header. Every input
	// yields one output (copies are real, headers and dummies emit dummies),
	// then the copies are compacted to the front. A slot no header precedes
	// lies past the real result, which may be empty: it is a padding copy
	// of the zero header, never a gap, so the count emitted is slots
	// whatever the real count.
	filled, err := o.newWVec(name+".fill", tupSize)
	if err != nil {
		return nil, err
	}
	var last wrec
	var c int64
	var emitted int64
	if err := scanEmitW(work, filled, mem, func(_ int, r wrec) wrec {
		switch r.flag {
		case wflagReal:
			last, c = r, 0
			return wrec{flag: wflagDummy, key: posInf, seq: posInf}
		case wflagPlaceholder:
			out := copyFn(last, c)
			out.flag = wflagReal
			out.seq = emitted
			c++
			emitted++
			return out
		default:
			return wrec{flag: wflagDummy, key: posInf, seq: posInf}
		}
	}); err != nil {
		return nil, err
	}
	if emitted != slots {
		return nil, fmt.Errorf("baseline: expansion emitted %d of %d slots", emitted, slots)
	}
	// Compact copies to the front in emission order.
	if err := sortW(filled, mem, func(a, b wrec) bool { return a.seq < b.seq }); err != nil {
		return nil, err
	}
	if err := filled.Truncate(int(slots)); err != nil {
		return nil, err
	}
	return filled, nil
}

// ODBJJoin computes T1 ⋈ T2 on a1 = a2 with the fully oblivious
// sort-based binary equi-join of Krastnikov et al.: degree annotation by
// oblivious sort plus forward/backward passes, oblivious expansion of both
// sides to |R| aligned slots, and a final zip. All intermediate state lives
// in encrypted server blocks; the client keeps O(1) records plus the sort
// buffer.
func ODBJJoin(r1, r2 *relation.Relation, a1, a2 string, opts Options) (*Result, error) {
	if opts.Sealer == nil {
		return nil, fmt.Errorf("baseline: ODBJ requires a sealer")
	}
	var start storage.Stats
	if opts.Meter != nil {
		start = opts.Meter.Snapshot()
	}
	col1, col2 := r1.Schema.MustCol(a1), r2.Schema.MustCol(a2)
	t1Size, t2Size := r1.Schema.TupleSize(), r2.Schema.TupleSize()
	tupSize := t1Size
	if t2Size > tupSize {
		tupSize = t2Size
	}
	mem := opts.mem(wheader + tupSize)

	// Phase A: union, sort by (key, src), annotate degrees and group
	// offsets with three linear passes.
	s, err := opts.newWVec("odbj.s", tupSize)
	if err != nil {
		return nil, err
	}
	appendRel := func(rel *relation.Relation, src byte, col int) error {
		for _, tu := range rel.Tuples {
			enc := make([]byte, tupSize)
			if err := relation.Encode(rel.Schema, tu, enc); err != nil {
				return err
			}
			r := wrec{flag: wflagReal, key: tu.Values[col], src: src, tup: enc}
			if err := s.Append(marshalW(&r, tupSize)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := appendRel(r1, 0, col1); err != nil {
		return nil, err
	}
	if err := appendRel(r2, 1, col2); err != nil {
		return nil, err
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	if err := sortW(s, mem, func(a, b wrec) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.src < b.src
	}); err != nil {
		return nil, err
	}
	// Forward: inclusive per-source counts within the key group.
	var curKey int64
	var started bool
	var c0, c1 int64
	if err := scanW(s, mem, false, func(_ int, r *wrec) {
		if !started || r.key != curKey {
			curKey, started = r.key, true
			c0, c1 = 0, 0
		}
		if r.src == 0 {
			c0++
		} else {
			c1++
		}
		r.c0, r.c1 = c0, c1
	}); err != nil {
		return nil, err
	}
	// Backward: propagate group totals.
	started = false
	var t0, t1 int64
	if err := scanW(s, mem, true, func(_ int, r *wrec) {
		if !started || r.key != curKey {
			curKey, started = r.key, true
			t0, t1 = r.c0, r.c1
		}
		r.t0, r.t1 = t0, t1
	}); err != nil {
		return nil, err
	}
	// Forward: group output offsets and total output size R.
	started = false
	var offset int64
	if err := scanW(s, mem, false, func(_ int, r *wrec) {
		if !started || r.key != curKey {
			if started {
				offset += t0 * t1
			}
			curKey, started = r.key, true
			t0, t1 = r.t0, r.t1
		}
		r.group = offset
	}); err != nil {
		return nil, err
	}
	realR := offset
	if started {
		realR += t0 * t1
	}
	slots := realR
	if opts.PadTo > slots {
		slots = opts.PadTo
	}

	out := &Result{Schema: relation.JoinedSchema(
		fmt.Sprintf("%s⋈%s", r1.Schema.Table, r2.Schema.Table), r1.Schema, r2.Schema)}
	// The expansions and the zip run whenever there is a slot, padding
	// included: an empty result padded to slots costs what any other does.
	if slots > 0 {
		// Phase B: expand the T1 side; tuple rank k0 = c0-1 occupies slots
		// group + k0*t1 .. group + k0*t1 + t1 - 1 contiguously.
		if err := scanW(s, mem, false, func(_ int, r *wrec) {
			if r.src == 0 && r.t1 > 0 {
				r.pos = r.group + (r.c0-1)*r.t1
			} else {
				r.pos = posInf
			}
		}); err != nil {
			return nil, err
		}
		e1, err := opts.expandW("odbj.e1", s, slots, mem, func(h wrec, c int64) wrec {
			h.pos = h.group + (h.c0-1)*h.t1 + c
			return h
		})
		if err != nil {
			return nil, err
		}
		// Phase C: expand the T2 side contiguously per tuple, computing each
		// copy's aligned target slot group + c*t1 + k1, then sort by target.
		if err := scanW(s, mem, false, func(_ int, r *wrec) {
			if r.src == 1 && r.t0 > 0 {
				r.pos = r.group + (r.c1-1)*r.t0
			} else {
				r.pos = posInf
			}
		}); err != nil {
			return nil, err
		}
		e2, err := opts.expandW("odbj.e2", s, slots, mem, func(h wrec, c int64) wrec {
			h.pos = h.group + c*h.t1 + (h.c1 - 1)
			return h
		})
		if err != nil {
			return nil, err
		}
		if err := sortW(e2, mem, func(a, b wrec) bool { return a.pos < b.pos }); err != nil {
			return nil, err
		}
		// Phase D: zip aligned slots into join records.
		for lo := 0; lo < int(slots); lo += mem {
			cnt := mem
			if lo+cnt > int(slots) {
				cnt = int(slots) - lo
			}
			l, err := e1.LoadRange(lo, cnt)
			if err != nil {
				return nil, err
			}
			r, err := e2.LoadRange(lo, cnt)
			if err != nil {
				return nil, err
			}
			for i := 0; i < cnt; i++ {
				if int64(lo+i) >= realR {
					continue // padding slots beyond the real result
				}
				lr, rr := unmarshalW(l[i]), unmarshalW(r[i])
				lt, ok1, err := relation.Decode(r1.Schema, lr.tup)
				if err != nil || !ok1 {
					return nil, fmt.Errorf("baseline: left slot %d invalid (%v)", lo+i, err)
				}
				rt, ok2, err := relation.Decode(r2.Schema, rr.tup)
				if err != nil || !ok2 {
					return nil, fmt.Errorf("baseline: right slot %d invalid (%v)", lo+i, err)
				}
				if lr.key != rr.key {
					return nil, fmt.Errorf("baseline: misaligned slot %d: keys %d vs %d", lo+i, lr.key, rr.key)
				}
				out.Tuples = append(out.Tuples, relation.Concat(lt, rt))
			}
		}
	}
	out.RealCount = int(realR)
	if opts.Meter != nil {
		out.Stats = opts.Meter.Snapshot().Sub(start)
	}
	return out, nil
}
