// Package operators provides the oblivious relational operator a complete
// encrypted query engine needs around joins beside the join itself: padded
// selection (SelectPadded — the "oblivious filter" the paper configures as
// ObliDB's Hash Select in Section 9.1).
//
// SelectPadded is off the query path: the query layer's pushdown reads a
// filtered input's base table back with one oblivious scan of its data ORAM
// and filters it in client memory (query.Executor), which needs no
// selection vector and no compaction. SelectPadded stays for the
// benchmark's ladder rung, until a benchmark-only change retires both.
// Grouping and aggregation over a query's decoded output run in client
// memory, where db.Run has already put its rows (examples/analytics).
//
// The operator follows the same discipline as the joins: it scans a
// server-resident encrypted vector with an access pattern that depends
// only on public sizes, emits exactly one (real or dummy) record per input
// record, and removes dummies with the oblivious compaction of
// internal/obliv at the paper's client budget M = 2B (obliv.ClientMem). The
// (padded) output size is the only new information revealed, matching the
// leakage profile of Definition 1.
package operators

import (
	"fmt"

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
	// RealCount is the output size, which SelectPadded does not declare.
	RealCount int
	// PaddedCount is the server-visible output size, SelectPadded's padding
	// target.
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
	if err := (obliv.Sorter{Span: sp}).CompactReal(vec, obliv.ClientMem(recSize, opts.blockSize()), relation.IsDummy, declared, dummy); err != nil {
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
