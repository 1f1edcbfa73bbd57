package core

import (
	"fmt"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/telemetry"
)

// outWriter accumulates the join's output table: one fixed-size encrypted
// record per join step (real join tuple or dummy), appended to a
// server-resident block vector, then obliviously filtered.
type outWriter struct {
	schema  relation.Schema
	vec     *obliv.BlockVector
	recSize int
	real    int
	total   int
}

func newOutWriter(name string, opts Options, schemas ...relation.Schema) (*outWriter, error) {
	if opts.Sealer == nil {
		return nil, fmt.Errorf("core: output sealer is required")
	}
	schema := relation.JoinedSchema(name, schemas...)
	recSize := schema.TupleSize()
	vec, err := obliv.NewBlockVector(name, 64, recSize, opts.outBlockSize(), opts.Meter, opts.Sealer)
	if err != nil {
		return nil, err
	}
	return &outWriter{schema: schema, vec: vec, recSize: recSize}, nil
}

// putJoin writes the concatenation of the given tuples as one real record.
func (w *outWriter) putJoin(tuples ...relation.Tuple) error {
	rec := make([]byte, w.recSize)
	if err := relation.Encode(w.schema, relation.Concat(tuples...), rec); err != nil {
		return err
	}
	w.real++
	w.total++
	return w.vec.Append(rec)
}

// putDummy writes one dummy record, indistinguishable from a real one.
func (w *outWriter) putDummy() error {
	rec := make([]byte, w.recSize)
	if err := relation.EncodeDummy(w.schema, rec); err != nil {
		return err
	}
	w.total++
	return w.vec.Append(rec)
}

// finish applies the Section 8 padding strategy and the paper's final
// oblivious filter: the output vector is compacted so real records precede
// dummies in their emission order (obliv.CompactReal with mem trusted
// records) and truncated to the padded size. The compaction's plan packs
// its transfers into rounds that read at most the padded prefix, the same
// blocks the decode reads. The padding is appended in client memory, so the
// partly filled last block is written once, riding the compaction's first
// round, and the compaction's last round's write-back rides the decode read.
// It returns the decoded real join tuples. join is the algorithm's telemetry
// span (may be nil); the filter and decode phases attach under it, with the
// compaction's own span nesting under the filter.
func (w *outWriter) finish(opts Options, cartesian int64, join *telemetry.Span) (tuples []relation.Tuple, realCount, paddedCount int, err error) {
	filter := join.Child("filter")
	padded := opts.PadSize(int64(w.real), cartesian)
	filter.SetAttr("out", int64(w.total))
	filter.SetAttr("padded", padded)
	// A heavily padded target can exceed the records the join steps emitted.
	dummy := make([]byte, w.recSize)
	if err := w.vec.PadTo(int(padded), dummy); err != nil {
		return nil, 0, 0, err
	}
	mem := obliv.ClientMem(w.recSize, opts.outBlockSize())
	if err := (obliv.Sorter{Span: filter}).CompactReal(w.vec, mem, relation.IsDummy, int(padded), dummy); err != nil {
		return nil, 0, 0, err
	}
	filter.End()
	// Decode the output client-side for the caller. Under PadNone the real
	// count is declared leakage, so only the real prefix is read; every
	// padding mode exists to hide it, so there the read-back covers the
	// whole padded prefix — otherwise the decode reads would mark the real
	// size at block granularity, exactly the boundary padding hides.
	read := w.real
	if opts.Padding != PadNone {
		read = int(padded)
	}
	decode := join.Child("decode")
	defer decode.End()
	if read > 0 {
		recs, err := w.vec.LoadRange(0, read)
		if err != nil {
			return nil, 0, 0, err
		}
		tuples = make([]relation.Tuple, 0, w.real)
		for i, rec := range recs {
			tu, ok, err := relation.Decode(w.schema, rec)
			if err != nil {
				return nil, 0, 0, err
			}
			if !ok {
				if i < w.real {
					return nil, 0, 0, fmt.Errorf("core: dummy record at output position %d of %d real", i, w.real)
				}
				continue // padding dummy past the real prefix
			}
			tuples = append(tuples, tu)
		}
	}
	return tuples, w.real, int(padded), nil
}
