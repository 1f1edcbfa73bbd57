// Package core implements the paper's contribution: oblivious join
// algorithms over B-tree-in-ORAM tables.
//
//   - SortMergeJoin — oblivious binary sort-merge equi-join (Algorithm 1);
//   - IndexNestedLoopJoin — oblivious binary index nested-loop equi-join
//     (Algorithm 2);
//   - BandJoin — oblivious index nested-loop band join (Section 5.3);
//   - MultiwayJoin — oblivious acyclic multiway equi-join with tuple
//     disabling (Section 6, Observations 1–3).
//
// Every algorithm maintains the paper's central invariant: in each join
// step one tuple (real or dummy) is retrieved from every input table with a
// fixed per-table access count, and exactly one output record (real join
// tuple or dummy) is written. The number of join steps is padded to the
// closed-form bounds of Theorems 1–4, so the server-visible trace is a
// function of the public input/output sizes only.
//
// In the SepORAM setting every operator runs its steps through a
// table.Pipeline: each tree serves one access per round, but for a root
// read ahead, every access travels in the first round in which what it is
// built from has landed, and a step returns once its index stages have —
// the next step is decided from Row.Entry and Row.OK while the step's data
// accesses still ride the next step's first round, and a step's output
// record is written when its data lands. A descent's first access, the root, needs no key, so it is read
// ahead in the step before: beside that step's first keyed access on the
// tree, in one share of two paths, where the descents pin nothing — the
// lookup-only cursors of the index nested-loop and band joins — and on a
// tree with no access pending otherwise. A sort-merge step is one round, an
// index nested-loop or band step the inner descent's accesses below the
// root, a multiway step one stage per level of the join tree, or fewer
// where children take their key from their parent's index entry
// (MultiwayWaits). Which rounds a step takes depends on the
// operator, the step index and public sizes only — real, dummy and pad
// steps alike.
//
// All four joins run on one driver (run): it pads an operator's steps to
// its theorem's bound, then filters and decodes the output, and ends the
// query with one settle round that carries the last write-back of every
// tree the join touched.
//
// The OneORAM setting of Section 7 is the inputs' own: every table is a
// view of one shared Path-ORAM (table.StoreShared). The driver reads the
// setting off its inputs (oram.Shared), and only the stepper that performs
// the steps acts on it. There a step's retrievals run one after another,
// each padded with dummy accesses on the shared tree to the widest of the
// join's lanes,
// and the binary joins skip a dummy partner beside a real retrieval — which
// the output table would betray were it not for one output record written
// after every retrieval rather than every step.
//
// Raw mode is the inputs' own too: over raw tables (table.Options.Raw, every
// ORAM an oram.RawStore) the driver is the paper's insecure Raw Index
// baseline. The decision procedures run unchanged with nothing oblivious
// around them — a hold touches no block, no step is padded, the output
// holds the join records alone and is not filtered, and the multiway join
// neither disables nor resets — so the blowup over Raw is the price of
// obliviousness alone.
package core

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

// cryptoUniform draws a uniform float in (0,1] from crypto/rand.
func cryptoUniform() float64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("core: crypto/rand failed: %v", err))
	}
	v := binary.LittleEndian.Uint64(b[:]) >> 11 // 53 bits
	return (float64(v) + 1) / float64(1<<53)
}

// PaddingMode selects the output-size padding strategy of Section 8.
type PaddingMode int

const (
	// PadNone leaks the real join result size (the paper's default,
	// "non-padded mode").
	PadNone PaddingMode = iota
	// PadClosestPower pads the result size (and the join-step count derived
	// from it) to the closest power of 2.
	PadClosestPower
	// PadCartesian pads to the Cartesian product of the input sizes — the
	// maximal, query-independent bound.
	PadCartesian
	// PadDP pads the result size with positive one-sided noise drawn from a
	// truncated geometric distribution — the differentially-private padding
	// direction Section 8 points at ([17], Shrinkwrap): far cheaper than
	// Cartesian padding, at the price of a (ε,δ)-DP rather than a full
	// obliviousness guarantee on the output size.
	PadDP
)

func (p PaddingMode) String() string {
	switch p {
	case PadNone:
		return "RealSize"
	case PadClosestPower:
		return "ClosestPower"
	case PadCartesian:
		return "CartesianProduct"
	case PadDP:
		return "DPNoise"
	default:
		return fmt.Sprintf("PaddingMode(%d)", int(p))
	}
}

// Options configures a join execution.
type Options struct {
	// Padding selects the Section 8 output padding strategy.
	Padding PaddingMode
	// DPRand draws the PadDP noise; nil means crypto/rand-backed.
	DPRand func() float64
	// OutBlockSize is the total byte size of output-table blocks (0 means
	// table.DefaultBlockPayload + encryption overhead).
	OutBlockSize int
	// Meter receives output-table traffic and is snapshotted around the join
	// for Result.Stats; may be nil.
	Meter *storage.Meter
	// Sealer encrypts the output table; required.
	Sealer *xcrypto.Sealer
	// Span, when non-nil, is the parent telemetry span: the join attaches a
	// phase-attributed sub-tree (load → scan/merge → pad → filter → decode)
	// under it, each phase carrying wall time, Meter deltas, and public
	// sizes only. Telemetry performs no server accesses, so the trace is
	// identical with or without it (DESIGN.md §2.8).
	Span *telemetry.Span
}

func (o Options) outBlockSize() int {
	if o.OutBlockSize > 0 {
		return o.OutBlockSize
	}
	return table.DefaultBlockPayload + xcrypto.Overhead
}

// The Section 8 padding parameters, fixed as in every figure of the paper:
// PadClosestPower pads to the closest power of padBase, and PadDP draws its
// noise at privacy parameter DPEpsilon — the ε of each noisy count it
// releases (a query's total is the sum over its releases, query.Plan.Epsilon).
const (
	padBase   = 2
	DPEpsilon = 0.5
)

// PadSize applies the padding mode to the real result size given the
// Cartesian bound — exported so baselines and harnesses can mirror the
// engine's padding targets.
func (o Options) PadSize(real int64, cartesian int64) int64 {
	if o.Padding == PadDP {
		return min(real+o.dpNoise(), cartesian)
	}
	return o.Padding.PlannedSize(real, cartesian)
}

// PlannedSize is the deterministic planning form of Options.PadSize:
// identical for every mode except PadDP, where the random draw is replaced
// by ⌈1/ε⌉+1, so that planning never consumes randomness (a plan must be a
// pure function of public metadata).
func (p PaddingMode) PlannedSize(est, cartesian int64) int64 {
	switch p {
	case PadClosestPower:
		pow := int64(1)
		for pow < est {
			pow *= padBase
		}
		return min(pow, cartesian)
	case PadCartesian:
		return cartesian
	case PadDP:
		return min(est+int64(math.Ceil(1/DPEpsilon))+1, cartesian)
	default:
		return est
	}
}

// dpNoise draws one-sided geometric noise with mean ≈ 1/ε, shifted so the
// output is always ≥ 1 extra record (one-sided noise keeps the padded size
// an upper bound on the real size, as Shrinkwrap requires).
func (o Options) dpNoise() int64 {
	uniform := o.DPRand
	if uniform == nil {
		uniform = cryptoUniform
	}
	// Geometric with success probability p = 1 - e^-ε via inversion.
	p := 1 - math.Exp(-DPEpsilon)
	u := uniform()
	if u <= 0 {
		u = 1e-12
	}
	n := int64(math.Log(u)/math.Log(1-p)) + 1
	if n < 1 {
		n = 1
	}
	const cap = 1 << 20 // truncate: bounds the worst case like [17]'s clipping
	if n > cap {
		n = cap
	}
	return n
}

// input is a join's input table: a stored table, a chained table, or an
// oblivious tree. Its ORAMs are what a finished query has to settle.
type input interface {
	ORAMs() []oram.ORAM
	Schema() relation.Schema
	NumTuples() int
}

// operator is a join as the driver runs it: Algorithm 1 (merge), Algorithm
// 2 and the band join (probe), or the multiway join.
type operator interface {
	// stepper returns the stepper over the join's lanes, writing to w, in
	// the setting one says: the inputs' shared tree, nil in SepORAM.
	stepper(w *outWriter, one *oram.PathORAM) *stepper
	// decide runs the join's decision procedure to its end, a step at a time.
	decide(s *stepper) error
	// pad performs one pad step, with the round shape of a real one.
	pad(s *stepper) error
	// bound is the theorem's step bound over inputs of the given sizes at
	// the padded result size r.
	bound(sizes []int64, r int64) int64
}

// algorithm names a join: its telemetry span and the span of its decision
// phase, and, for the bound check, the join and its theorem.
type algorithm struct{ span, phase, name, theorem string }

// run is the driver every join runs on. Under the join's span it opens the
// output writer and the operator's stepper in the setting the inputs share
// (load); runs the decision procedure; pads the steps to the theorem's bound
// at the padded result size and drains them (pad); for the multiway join,
// resets the indexes; and then filters and decodes the output and settles
// every input tree, the query's last round.
//
// Over raw tables (oram.RawStore, the insecure Raw Index baseline) the same
// decision procedure runs with nothing oblivious around it: holds touch no
// block, the steps are not padded, the output holds the join records alone
// and is not filtered, and the multiway join neither disables nor resets.
func run(alg algorithm, op operator, opts Options, inputs ...input) (*Result, error) {
	var orams []oram.ORAM
	for _, t := range inputs {
		orams = append(orams, t.ORAMs()...)
	}
	one, err := oram.Shared(orams...)
	var raw bool
	if err == nil {
		raw, err = rawTables(orams)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", alg.name, err)
	}
	if one != nil {
		orams = append(orams, one)
	}
	start := snapshot(opts.Meter)
	sp := opts.span(alg.span)
	defer sp.End()
	load := sp.Child("load")
	sizes := make([]int64, len(inputs))
	names := make([]string, len(inputs))
	schemas := make([]relation.Schema, len(inputs))
	for i, t := range inputs {
		sizes[i], names[i], schemas[i] = int64(t.NumTuples()), t.Schema().Table, t.Schema()
		sp.SetAttr(fmt.Sprintf("n%d", i+1), sizes[i])
	}
	w, err := newOutWriter(strings.Join(names, "⋈"), opts, raw, schemas...)
	if err != nil {
		return nil, err
	}
	s := op.stepper(w, one)
	load.End()

	phase := sp.Child(alg.phase)
	if err := op.decide(s); err != nil {
		return nil, err
	}
	steps := s.steps
	phase.SetAttr("steps", steps)
	phase.End()

	// The padded result size is drawn once: the step bound and the output
	// filter pad to the same size.
	target, padded := steps, int64(0)
	if !raw {
		padded = opts.PadSize(s.real(), Cartesian(sizes...))
		target = op.bound(sizes, padded)
	}
	if steps > target {
		return nil, fmt.Errorf("core: %s executed %d steps, exceeding the %s bound %d", alg.name, steps, alg.theorem, target)
	}
	pad := sp.Child("pad")
	pad.SetAttr("steps", steps)
	pad.SetAttr("target", target)
	for s.steps < target {
		if err := op.pad(s); err != nil {
			return nil, err
		}
	}
	if err := s.drain(); err != nil {
		return nil, err
	}
	pad.End()

	if r, ok := op.(interface{ reset() error }); ok && !raw {
		reset := sp.Child("reset")
		if err := r.reset(); err != nil {
			return nil, err
		}
		reset.End()
	}
	tuples, real, paddedCount, err := w.finish(opts, padded, sp)
	if err != nil {
		return nil, err
	}
	if err := settle(sp, orams); err != nil {
		return nil, err
	}
	return &Result{
		Schema:      w.schema,
		Tuples:      tuples,
		RealCount:   real,
		PaddedCount: paddedCount,
		Steps:       steps,
		PaddedSteps: target,
		Retrievals:  s.retrievals,
		Stats:       diff(opts.Meter, start),
	}, nil
}

// rawTables reports whether every one of orams is an oram.RawStore, the
// insecure baseline's tables, and refuses a mix of raw and oblivious ones.
func rawTables(orams []oram.ORAM) (bool, error) {
	n := 0
	for _, o := range orams {
		if _, ok := o.(*oram.RawStore); ok {
			n++
		}
	}
	if n > 0 && n < len(orams) {
		return false, errors.New("raw tables beside oblivious ones")
	}
	return n > 0, nil
}

// settle writes back what every ORAM of the query — its inputs', and the
// shared tree in the OneORAM setting — still has queued, in one round for
// all of them (oram.Settle) under a "flush" child span, so the write-backs
// are charged to the query and the stashes return to their steady-state
// bound. The shares travel in canonical order: tables as the operator lists
// them, each table's ORAMs as StoredTable.ORAMs does. It then attaches the
// cumulative eviction-scheduler counters (write-backs, paths per
// write-back, bucket seals saved by sealing a write-back's shared buckets
// once, write-backs that rode a download)
// to the span.
func settle(sp *telemetry.Span, orams []oram.ORAM) error {
	fl := sp.Child("flush")
	defer fl.End()
	if err := oram.Settle(orams...); err != nil {
		return err
	}
	var flushes, paths, deduped, exchanges int64
	for _, o := range orams {
		t, ok := o.(interface{ Telemetry() oram.PathStats })
		if !ok {
			continue
		}
		s := t.Telemetry()
		flushes += s.Flushes
		paths += s.FlushedPaths
		deduped += s.DedupedBuckets
		exchanges += s.Exchanges
	}
	if flushes > 0 {
		fl.SetAttr("evict.flushes", flushes)
		fl.SetAttr("evict.paths", paths)
		fl.SetAttr("evict.dedupedBuckets", deduped)
	}
	if exchanges > 0 {
		fl.SetAttr("evict.exchanges", exchanges)
	}
	return nil
}

// span opens a child phase span under Options.Span bound to the query
// meter. Nil-safe: with telemetry disabled (Options.Span == nil) the result
// is nil and every operation on it no-ops.
func (o Options) span(name string) *telemetry.Span {
	return o.Span.ChildMeter(name, o.Meter)
}

func snapshot(m *storage.Meter) storage.Stats {
	if m == nil {
		return storage.Stats{}
	}
	return m.Snapshot()
}

func diff(m *storage.Meter, start storage.Stats) storage.Stats {
	if m == nil {
		return storage.Stats{}
	}
	return m.Snapshot().Sub(start)
}

// Result reports a join's outcome.
type Result struct {
	// Schema describes the output records.
	Schema relation.Schema
	// Tuples are the decoded real join records (padded-mode dummies are
	// excluded) in output-table order.
	Tuples []relation.Tuple
	// RealCount is the true join result size.
	RealCount int
	// PaddedCount is the output size after Section 8 padding.
	PaddedCount int
	// Steps is the number of join steps actually executed, before padding.
	Steps int64
	// PaddedSteps is the step count after padding to the theorem bound; the
	// server-visible trace length is determined by this value.
	PaddedSteps int64
	// Retrievals is the per-table tuple-retrieval count (Numtr of Theorems
	// 1–4), equal to PaddedSteps, in the SepORAM setting. In the OneORAM
	// setting it is the retrievals performed across all tables (the NumtrOne*
	// totals; PaddedSteps × tables for multiway), and for a binary join also
	// the number of output records the steps wrote.
	Retrievals int64
	// Stats is the traffic consumed by the join (when Options.Meter was
	// set): the communication cost the paper's figures plot.
	Stats storage.Stats
}
