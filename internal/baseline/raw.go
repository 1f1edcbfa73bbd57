package baseline

import (
	"fmt"

	"oblivjoin/internal/core"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

// rawOut collects join output into plaintext blocks, counting the traffic a
// non-oblivious system would pay: one block write, in a round of its own,
// per packed block, no dummies, no filtering pass.
type rawOut struct {
	schema   relation.Schema
	tuples   []relation.Tuple
	store    *storage.MemStore
	perBlock int
	buf      []byte
	inBuf    int
	blocks   int64
}

func newRawOut(name string, opts Options, schemas ...relation.Schema) *rawOut {
	schema := relation.JoinedSchema(name, schemas...)
	recSize := schema.TupleSize()
	bs := opts.blockSize() - xcrypto.Overhead // raw blocks carry no crypto overhead
	per := bs / recSize
	if per < 1 {
		per = 1
	}
	st := storage.NewMemStore(name, 1, bs, opts.Meter)
	return &rawOut{
		schema:   schema,
		store:    st,
		perBlock: per,
		buf:      make([]byte, bs),
	}
}

func (o *rawOut) put(tuples ...relation.Tuple) error {
	tu := relation.Concat(tuples...)
	o.tuples = append(o.tuples, tu)
	rec := o.buf[o.inBuf*o.schema.TupleSize():]
	if err := relation.Encode(o.schema, tu, rec); err != nil {
		return err
	}
	o.inBuf++
	if o.inBuf == o.perBlock {
		return o.flush()
	}
	return nil
}

func (o *rawOut) flush() error {
	if o.inBuf == 0 {
		return nil
	}
	if o.blocks >= o.store.Len() {
		o.store.Grow(o.blocks - o.store.Len() + 1)
	}
	if err := o.store.Write(o.blocks, o.buf); err != nil {
		return err
	}
	o.blocks++
	o.inBuf = 0
	for i := range o.buf {
		o.buf[i] = 0
	}
	return nil
}

func (o *rawOut) finish(opts Options, start storage.Stats) *Result {
	res := &Result{Schema: o.schema, Tuples: o.tuples, RealCount: len(o.tuples)}
	if opts.Meter != nil {
		res.Stats = opts.Meter.Snapshot().Sub(start)
	}
	return res
}

// RawSortMergeJoin is the insecure sort-merge baseline: a standard merge
// over the two raw B-tree leaf chains with run rewinding for many-to-many
// keys, no dummies, and plaintext output. Tables must be stored with
// table.Options.Raw and an index on the join attribute.
func RawSortMergeJoin(t1, t2 *table.StoredTable, a1, a2 string, opts Options) (*Result, error) {
	var start storage.Stats
	if opts.Meter != nil {
		start = opts.Meter.Snapshot()
	}
	c1, err := table.NewLeafCursor(t1, a1)
	if err != nil {
		return nil, err
	}
	c2, err := table.NewLeafCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	out := newRawOut(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2.Schema().Table),
		opts, t1.Schema(), t2.Schema())
	row1, err := c1.Next()
	if err != nil {
		return nil, err
	}
	row2, err := c2.Next()
	if err != nil {
		return nil, err
	}
	for row1.OK && row2.OK {
		switch {
		case row1.Entry.Key < row2.Entry.Key:
			if row1, err = c1.Next(); err != nil {
				return nil, err
			}
		case row1.Entry.Key > row2.Entry.Key:
			if row2, err = c2.Next(); err != nil {
				return nil, err
			}
		default:
			begin, beginPos := row2, c2.Pos()
			for row2.OK && row2.Entry.Key == row1.Entry.Key {
				if err := out.put(row1.Tuple, row2.Tuple); err != nil {
					return nil, err
				}
				if row2, err = c2.Next(); err != nil {
					return nil, err
				}
			}
			row2 = begin
			c2.SeekOrd(beginPos)
			if row1, err = c1.Next(); err != nil {
				return nil, err
			}
			// A different next key lets the inner cursor move past the run.
			if !row1.OK || row1.Entry.Key != begin.Entry.Key {
				for row2.OK && row2.Entry.Key == begin.Entry.Key {
					if row2, err = c2.Next(); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if err := out.flush(); err != nil {
		return nil, err
	}
	return out.finish(opts, start), nil
}

// RawINLJ is the insecure index nested-loop baseline: scan T1, probe T2's
// raw B-tree per tuple, emit only real matches.
func RawINLJ(t1, t2 *table.StoredTable, a1, a2 string, opts Options) (*Result, error) {
	var start storage.Stats
	if opts.Meter != nil {
		start = opts.Meter.Snapshot()
	}
	col1 := t1.Schema().MustCol(a1)
	scan := table.NewScanCursor(t1)
	ic, err := table.NewIndexCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	out := newRawOut(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2.Schema().Table),
		opts, t1.Schema(), t2.Schema())
	for i := 0; i < t1.NumTuples(); i++ {
		row1, err := scan.Next()
		if err != nil {
			return nil, err
		}
		key := row1.Tuple.Values[col1]
		row2, err := ic.SeekGE(key)
		if err != nil {
			return nil, err
		}
		for row2.OK && row2.Entry.Key == key {
			if err := out.put(row1.Tuple, row2.Tuple); err != nil {
				return nil, err
			}
			if row2, err = ic.Next(); err != nil {
				return nil, err
			}
		}
	}
	if err := out.flush(); err != nil {
		return nil, err
	}
	return out.finish(opts, start), nil
}

// RawBandJoin is the insecure band-join baseline (Section 5.3's access
// strategy without any dummies).
func RawBandJoin(t1, t2 *table.StoredTable, a1, a2 string, op core.BandOp, opts Options) (*Result, error) {
	var start storage.Stats
	if opts.Meter != nil {
		start = opts.Meter.Snapshot()
	}
	col1 := t1.Schema().MustCol(a1)
	scan := table.NewScanCursor(t1)
	ic, err := table.NewIndexCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	ascending := op == core.BandGreater || op == core.BandGreaterEq
	lastOrd := ic.Tree().NumEntries() - 1
	out := newRawOut(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2.Schema().Table),
		opts, t1.Schema(), t2.Schema())
	for i := 0; i < t1.NumTuples(); i++ {
		row1, err := scan.Next()
		if err != nil {
			return nil, err
		}
		key := row1.Tuple.Values[col1]
		var row2 table.Row
		if ascending {
			row2, err = ic.SeekOrdGE(0)
		} else {
			row2, err = ic.SeekOrdLE(lastOrd)
		}
		if err != nil {
			return nil, err
		}
		for row2.OK && op.Matches(key, row2.Entry.Key) {
			if err := out.put(row1.Tuple, row2.Tuple); err != nil {
				return nil, err
			}
			if ascending {
				row2, err = ic.Next()
			} else {
				row2, err = ic.Prev()
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if err := out.flush(); err != nil {
		return nil, err
	}
	return out.finish(opts, start), nil
}

// RawMultiwayINLJ is the insecure multiway baseline: plain recursive index
// nested loops over the join tree with early exits — the "Raw INLJ(+Cache)"
// series of the paper's Figures 15–18.
func RawMultiwayINLJ(in core.MultiwayInput, opts Options) (*Result, error) {
	if in.Tree == nil || len(in.Tables) != in.Tree.Len() {
		return nil, fmt.Errorf("baseline: multiway input needs one table per join-tree node")
	}
	var start storage.Stats
	if opts.Meter != nil {
		start = opts.Meter.Snapshot()
	}
	l := in.Tree.Len()
	schemas := make([]relation.Schema, l)
	cursors := make([]*table.IndexCursor, l)
	parentCols := make([]int, l)
	names := ""
	for j := 0; j < l; j++ {
		node := in.Tree.Order[j]
		schemas[j] = in.Tables[j].Schema()
		if j > 0 {
			names += "⋈"
			ic, err := table.NewIndexCursor(in.Tables[j], node.Attr)
			if err != nil {
				return nil, err
			}
			cursors[j] = ic
			parentCols[j] = in.Tables[node.Parent].Schema().MustCol(node.ParentAttr)
		}
		names += node.Table
	}
	out := newRawOut(names, opts, schemas...)
	cur := make([]relation.Tuple, l)
	var rec func(j int) error
	rec = func(j int) error {
		if j == l {
			return out.put(cur...)
		}
		parent := in.Tree.Order[j].Parent
		target := cur[parent].Values[parentCols[j]]
		row, err := cursors[j].SeekGE(target)
		if err != nil {
			return err
		}
		for row.OK && row.Entry.Key == target {
			cur[j] = row.Tuple
			if err := rec(j + 1); err != nil {
				return err
			}
			if row, err = cursors[j].Next(); err != nil {
				return err
			}
		}
		return nil
	}
	scan := table.NewScanCursor(in.Tables[0])
	for i := 0; i < in.Tables[0].NumTuples(); i++ {
		row, err := scan.Next()
		if err != nil {
			return nil, err
		}
		cur[0] = row.Tuple
		if err := rec(1); err != nil {
			return nil, err
		}
	}
	if err := out.flush(); err != nil {
		return nil, err
	}
	return out.finish(opts, start), nil
}
