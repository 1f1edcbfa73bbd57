package core

import (
	"fmt"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/telemetry"
)

// outWriter accumulates the join's output table: one fixed-size encrypted
// record per join step (real join tuple or dummy), appended to a
// server-resident block vector, then obliviously filtered. Over raw tables
// (the insecure baseline) it writes the join records alone and filters
// nothing, keeping the tuples it wrote.
type outWriter struct {
	schema  relation.Schema
	vec     *obliv.BlockVector
	recSize int
	rec     []byte         // every record is encoded here, then copied by Append
	joined  relation.Tuple // the join record being written, its Values reused
	real    int
	total   int
	raw     bool
	tuples  []relation.Tuple // raw: the join records written
}

func newOutWriter(name string, opts Options, raw bool, schemas ...relation.Schema) (*outWriter, error) {
	if opts.Sealer == nil {
		return nil, fmt.Errorf("core: output sealer is required")
	}
	schema := relation.JoinedSchema(name, schemas...)
	recSize := schema.TupleSize()
	vec, err := obliv.NewBlockVector(name, 64, recSize, opts.outBlockSize(), opts.Meter, opts.Sealer)
	if err != nil {
		return nil, err
	}
	return &outWriter{schema: schema, vec: vec, recSize: recSize, rec: make([]byte, recSize), raw: raw}, nil
}

// putJoin writes the concatenation of the given tuples as one real record.
func (w *outWriter) putJoin(tuples ...relation.Tuple) error {
	w.joined.Values = w.joined.Values[:0]
	for _, t := range tuples {
		w.joined.Values = append(w.joined.Values, t.Values...)
	}
	if err := relation.Encode(w.schema, w.joined, w.rec); err != nil {
		return err
	}
	if w.raw {
		w.tuples = append(w.tuples, relation.Concat(tuples...))
	}
	w.real++
	w.total++
	return w.vec.Append(w.rec)
}

// putDummy writes one dummy record, indistinguishable from a real one; a
// raw output writes none.
func (w *outWriter) putDummy() error {
	if w.raw {
		return nil
	}
	if err := relation.EncodeDummy(w.schema, w.rec); err != nil {
		return err
	}
	w.total++
	return w.vec.Append(w.rec)
}

// finish applies the Section 8 padding strategy and the paper's final
// oblivious filter: the output vector is compacted so real records precede
// dummies in their emission order (obliv.CompactReal with mem trusted
// records) and truncated to padded, the padded result size the driver drew.
// The compaction's plan packs its transfers into rounds that read at most
// the padded prefix, the same blocks the decode reads. The padding is appended in client memory, so the
// partly filled last block is written once, riding the compaction's first
// round, and the compaction's last round's write-back rides the decode read.
// It returns the decoded real join tuples. join is the algorithm's telemetry
// span (may be nil); the filter and decode phases attach under it, with the
// compaction's own span nesting under the filter. A raw output holds join
// records only: it is flushed, and the tuples written are its result.
func (w *outWriter) finish(opts Options, padded int64, join *telemetry.Span) (tuples []relation.Tuple, realCount, paddedCount int, err error) {
	if w.raw {
		if err := w.vec.Flush(); err != nil {
			return nil, 0, 0, err
		}
		return w.tuples, w.real, w.real, nil
	}
	filter := join.Child("filter")
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
