// Package operators provides the oblivious relational operators a complete
// encrypted query engine needs around joins: padded selection (SelectPadded
// — the "oblivious filter" the paper configures as ObliDB's Hash Select in
// Section 9.1) and sort-based grouping aggregation (GroupAggregate, the
// standard Opaque-style fold over an obliviously sorted vector).
//
// SelectPadded is off the query path: the query layer's pushdown reads a
// filtered input's base table back with one oblivious scan of its data ORAM
// and filters it in client memory (query.Executor), which needs no
// selection vector and no compaction. SelectPadded stays for the
// benchmark's ladder rung, until a benchmark-only change retires both.
//
// Every operator follows the same discipline as the joins: it scans or
// sorts server-resident encrypted vectors with an access pattern that
// depends only on public sizes, emits exactly one (real or dummy) record
// per input record, and removes dummies with the oblivious compaction of
// internal/obliv. The (padded) output size is the only new information
// revealed, matching the leakage profile of Definition 1.
//
// GroupAggregate's sort and the compactions (SelectPadded's,
// GroupAggregate's) run at the paper's client budget M = 2B
// (obliv.ClientMem) on the serial oblivious sort engine (see DESIGN.md
// §2.7).
package operators

import (
	"encoding/binary"
	"fmt"
	"sort"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

// Options configures operator executions.
type Options struct {
	// BlockSize is the total encrypted block size for intermediates.
	BlockSize int
	// Meter receives traffic accounting.
	Meter *storage.Meter
	// Sealer encrypts intermediates; required.
	Sealer *xcrypto.Sealer
	// Span, when non-nil, is the parent telemetry span; each operator
	// attaches a phase sub-tree under it (DESIGN.md §2.8).
	Span *telemetry.Span
}

// sorter returns the sort engine with its phases nesting under sp.
func (o Options) sorter(sp *telemetry.Span) obliv.Sorter {
	return obliv.Sorter{Span: sp}
}

// span opens a child phase span under Options.Span bound to the operator
// meter. Nil-safe: no-op when telemetry is disabled.
func (o Options) span(name string) *telemetry.Span {
	return o.Span.ChildMeter(name, o.Meter)
}

func (o Options) blockSize() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return table.DefaultBlockPayload + xcrypto.Overhead
}

// CompareOp is a selection comparison.
type CompareOp int

// Selection operators.
const (
	EQ CompareOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CompareOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// Matches evaluates v OP c.
func (op CompareOp) Matches(v, c int64) bool {
	switch op {
	case EQ:
		return v == c
	case NE:
		return v != c
	case LT:
		return v < c
	case LE:
		return v <= c
	case GT:
		return v > c
	case GE:
		return v >= c
	default:
		return false
	}
}

// Pred is one selection predicate: Column OP Value.
type Pred struct {
	Column string
	Op     CompareOp
	Value  int64
}

// Result is an operator's output.
type Result struct {
	Schema relation.Schema
	Tuples []relation.Tuple
	// RealCount is the output size (public under Definition 1's leakage,
	// except through SelectPadded, which declares only PaddedCount).
	RealCount int
	// PaddedCount is the server-visible output size: equal to RealCount for
	// GroupAggregate, and the padding target for SelectPadded.
	PaddedCount int
	Stats       storage.Stats
}

func start(o Options) storage.Stats {
	if o.Meter == nil {
		return storage.Stats{}
	}
	return o.Meter.Snapshot()
}

func finishStats(o Options, s storage.Stats) storage.Stats {
	if o.Meter == nil {
		return storage.Stats{}
	}
	return o.Meter.Snapshot().Sub(s)
}

// SelectPadded obliviously filters rel by the conjunction of preds: a
// single fixed-pattern scan writes one (real or dummy) record per input
// tuple to an encrypted output vector, then dummies are compacted away. The
// server-visible output size is a padding target instead of the real count:
// padTo receives the real match count (client-side knowledge) and returns
// the declared size to reveal, real ≤ padTo(real) ≤ len(rel.Tuples). The
// scan and compaction traces are functions of the input size alone; the
// only size-dependent accesses — the final read-back of the compacted
// prefix — cover exactly padTo(real) records, so selectivity leaks no
// further than the declared padding policy. padTo returning its argument
// reveals the real count.
func SelectPadded(rel *relation.Relation, preds []Pred, padTo func(real int) int, opts Options) (*Result, error) {
	if padTo == nil {
		return nil, fmt.Errorf("operators: SelectPadded requires a padding target")
	}
	if opts.Sealer == nil {
		return nil, fmt.Errorf("operators: sealer required")
	}
	st := start(opts)
	sp := opts.span("op.select")
	sp.SetAttr("n", int64(len(rel.Tuples)))
	defer sp.End()
	cols := make([]int, len(preds))
	for i, p := range preds {
		cols[i] = rel.Schema.MustCol(p.Column)
	}
	recSize := rel.Schema.TupleSize()
	vec, err := obliv.NewBlockVector("select", 64, recSize, opts.blockSize(), opts.Meter, opts.Sealer)
	if err != nil {
		return nil, err
	}
	scan := sp.Child("scan")
	real := 0
	buf := make([]byte, recSize)
	for _, tu := range rel.Tuples {
		match := true
		for i, p := range preds {
			if !p.Op.Matches(tu.Values[cols[i]], p.Value) {
				match = false
			}
		}
		if match {
			if err := relation.Encode(rel.Schema, tu, buf); err != nil {
				return nil, err
			}
			real++
		} else {
			if err := relation.EncodeDummy(rel.Schema, buf); err != nil {
				return nil, err
			}
		}
		if err := vec.Append(buf); err != nil {
			return nil, err
		}
	}
	scan.End()
	declared := padTo(real)
	if declared < real {
		return nil, fmt.Errorf("operators: padding target %d below real count %d", declared, real)
	}
	dummy := make([]byte, recSize)
	if err := opts.sorter(sp).CompactReal(vec, obliv.ClientMem(recSize, opts.blockSize()), relation.IsDummy, declared, dummy); err != nil {
		return nil, err
	}
	out := &Result{Schema: rel.Schema, RealCount: real, PaddedCount: declared}
	if declared > 0 {
		recs, err := vec.LoadRange(0, declared)
		if err != nil {
			return nil, err
		}
		for i, rec := range recs {
			tu, ok, err := relation.Decode(rel.Schema, rec)
			if err != nil {
				return nil, fmt.Errorf("operators: bad selected record (%v)", err)
			}
			if !ok {
				if i < real {
					return nil, fmt.Errorf("operators: dummy record at position %d of %d real", i, real)
				}
				continue // padding dummy past the real prefix
			}
			out.Tuples = append(out.Tuples, tu)
		}
	}
	out.Stats = finishStats(opts, st)
	return out, nil
}

// AggFunc selects the aggregate computed per group.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Min
	Max
)

func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// aggRec is the fixed-width working record of GroupAggregate: a real/dummy
// flag, the group key, and the running aggregate.
const aggRecSize = 1 + 8 + 8

func encodeAgg(dst []byte, real bool, key, val int64) {
	dst[0] = 0
	if real {
		dst[0] = 1
	}
	binary.LittleEndian.PutUint64(dst[1:], uint64(key))
	binary.LittleEndian.PutUint64(dst[9:], uint64(val))
}

func decodeAgg(src []byte) (real bool, key, val int64) {
	return src[0] == 1,
		int64(binary.LittleEndian.Uint64(src[1:])),
		int64(binary.LittleEndian.Uint64(src[9:]))
}

// GroupAggregate computes fn(valueCol) grouped by groupCol, obliviously:
// the rows are projected to (group, value) records in an encrypted vector,
// obliviously sorted by group, folded by a fixed-pattern scan that emits
// exactly one (real or dummy) record per input row (the group's closer
// carries the aggregate), and compacted. The server learns the input size
// and the number of groups.
//
// This is the standard sort-based oblivious aggregation of Opaque; COUNT
// uses value 1 per row.
func GroupAggregate(rel *relation.Relation, groupCol, valueCol string, fn AggFunc, opts Options) (*Result, error) {
	if opts.Sealer == nil {
		return nil, fmt.Errorf("operators: sealer required")
	}
	st := start(opts)
	sp := opts.span("op.groupagg")
	sp.SetAttr("n", int64(len(rel.Tuples)))
	defer sp.End()
	gc := rel.Schema.MustCol(groupCol)
	vc := 0
	if fn != Count {
		vc = rel.Schema.MustCol(valueCol)
	}
	vec, err := obliv.NewBlockVector("agg", 64, aggRecSize, opts.blockSize(), opts.Meter, opts.Sealer)
	if err != nil {
		return nil, err
	}
	scan := sp.Child("scan")
	buf := make([]byte, aggRecSize)
	for _, tu := range rel.Tuples {
		v := int64(1)
		if fn != Count {
			v = tu.Values[vc]
		}
		encodeAgg(buf, true, tu.Values[gc], v)
		if err := vec.Append(buf); err != nil {
			return nil, err
		}
	}
	if err := vec.Flush(); err != nil {
		return nil, err
	}
	scan.End()
	n := vec.Len()
	outSchema := relation.Schema{
		Table:   rel.Schema.Table,
		Columns: []string{groupCol, fmt.Sprintf("%s(%s)", fn, valueCol)},
	}
	out := &Result{Schema: outSchema}
	if n == 0 {
		out.Stats = finishStats(opts, st)
		return out, nil
	}

	mem := obliv.ClientMem(aggRecSize, opts.blockSize())
	// Oblivious sort by (dummy-last, group key).
	padded, _ := obliv.ChunkShape(n, mem)
	pad := make([]byte, aggRecSize)
	encodeAgg(pad, false, int64(^uint64(0)>>1), 0)
	if err := vec.PadTo(padded, pad); err != nil {
		return nil, err
	}
	less := func(a, b []byte) bool {
		ra, ka, _ := decodeAgg(a)
		rb, kb, _ := decodeAgg(b)
		if ra != rb {
			return ra // reals first
		}
		return ka < kb
	}
	if err := opts.sorter(sp).SortVector(vec, mem, less); err != nil {
		return nil, err
	}

	// Fold scan: running aggregate per group; the LAST row of each group
	// emits the group's result, every other row emits a dummy. One output
	// record per input row keeps the pattern fixed; a backward scan spots
	// group boundaries without lookahead... instead we scan forward keeping
	// the previous row, emitting its record when the group changes.
	outVec, err := obliv.NewBlockVector("agg.out", 64, aggRecSize, opts.blockSize(), opts.Meter, opts.Sealer)
	if err != nil {
		return nil, err
	}
	foldSpan := sp.Child("fold")
	groups := 0
	var curKey, curVal int64
	var curSet bool
	emit := func(real bool, key, val int64) error {
		rec := make([]byte, aggRecSize)
		encodeAgg(rec, real, key, val)
		return outVec.Append(rec)
	}
	for lo := 0; lo < padded; lo += mem {
		cnt := mem
		if lo+cnt > padded {
			cnt = padded - lo
		}
		recs, err := vec.LoadRange(lo, cnt)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			real, key, val := decodeAgg(rec)
			switch {
			case !real:
				// Dummy region (sorted last): flush the pending group once.
				if curSet {
					if err := emit(true, curKey, curVal); err != nil {
						return nil, err
					}
					groups++
					curSet = false
				} else {
					if err := emit(false, 0, 0); err != nil {
						return nil, err
					}
				}
			case !curSet:
				curKey, curVal, curSet = key, val, true
				if err := emit(false, 0, 0); err != nil {
					return nil, err
				}
			case key == curKey:
				curVal = fold(fn, curVal, val)
				if err := emit(false, 0, 0); err != nil {
					return nil, err
				}
			default:
				if err := emit(true, curKey, curVal); err != nil {
					return nil, err
				}
				groups++
				curKey, curVal = key, val
			}
		}
	}
	if curSet {
		if err := emit(true, curKey, curVal); err != nil {
			return nil, err
		}
		groups++
	} else {
		if err := emit(false, 0, 0); err != nil {
			return nil, err
		}
	}
	foldSpan.End()
	isDummy := func(rec []byte) bool { r, _, _ := decodeAgg(rec); return !r }
	if err := opts.sorter(sp).CompactReal(outVec, mem, isDummy, groups, pad); err != nil {
		return nil, err
	}
	if groups > 0 {
		recs, err := outVec.LoadRange(0, groups)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			_, key, val := decodeAgg(rec)
			out.Tuples = append(out.Tuples, relation.Tuple{Values: []int64{key, val}})
		}
		sort.Slice(out.Tuples, func(i, j int) bool { return out.Tuples[i].Values[0] < out.Tuples[j].Values[0] })
	}
	out.RealCount = groups
	out.Stats = finishStats(opts, st)
	return out, nil
}

func fold(fn AggFunc, acc, v int64) int64 {
	switch fn {
	case Count, Sum:
		return acc + v
	case Min:
		if v < acc {
			return v
		}
		return acc
	case Max:
		if v > acc {
			return v
		}
		return acc
	default:
		return acc
	}
}
