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
// table.Pipeline: each tree serves one access per round, every access
// travels in the first round in which what it is built from has landed, and
// a step returns once its index stages have — the next step is decided from
// Row.Entry and Row.OK while the step's data accesses still ride the next
// step's first round, and a step's output record is written when its data
// lands. A descent's first access, the root, needs no key, so it rides
// there too. A sort-merge step is one round, an index nested-loop or band
// step the inner descent's accesses, a multiway step one stage per level of
// the join tree, or fewer where children take their key from their parent's
// index entry (MultiwayWaits). Which rounds a step takes depends on the
// operator, the step index and public sizes only — real, dummy and pad
// steps alike. Every operator ends with one settle round that carries the
// last write-back of every tree it touched.
//
// The OneORAM setting of Section 7 is selected by Options.OneORAM: all
// tables share a single Path-ORAM. Every operator runs the same driver in
// both settings; only the stepper that performs its steps reads the
// setting. There a step's retrievals run one after another, each padded
// with dummy accesses on the shared tree to the widest of the join's lanes,
// and the binary joins skip a dummy partner beside a real retrieval — which
// the output table would betray were it not for one output record written
// after every retrieval rather than every step.
package core

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"

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
	// OneORAM, when non-nil, is the shared Path-ORAM all input tables live
	// in: the join runs in the Section 7 OneORAM setting, one retrieval at a
	// time, each padded to the widest of the join's tables; a binary join
	// skips the dummy partner of a real retrieval and writes an output
	// record after every retrieval.
	OneORAM *oram.PathORAM
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
// noise at privacy parameter dpEpsilon.
const (
	padBase   = 2
	dpEpsilon = 0.5
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
		return min(est+int64(math.Ceil(1/dpEpsilon))+1, cartesian)
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
	p := 1 - math.Exp(-dpEpsilon)
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

// padPhase opens the pad phase under sp once the executed steps are checked
// against the theorem's bound, target.
func padPhase(sp *telemetry.Span, join, theorem string, steps, target int64) (*telemetry.Span, error) {
	if steps > target {
		return nil, fmt.Errorf("core: %s executed %d steps, exceeding the %s bound %d", join, steps, theorem, target)
	}
	pad := sp.Child("pad")
	pad.SetAttr("steps", steps)
	pad.SetAttr("target", target)
	return pad, nil
}

// settler is an input table, seen as the ORAMs a finished query has to
// settle: every tree an access touched still has its last path queued (the
// write-back rides the tree's next download, and there is none).
type settler interface{ ORAMs() []oram.ORAM }

// pathTelemeter exposes per-ORAM path statistics for phase attribution.
type pathTelemeter interface{ PathTelemetry() []oram.PathStats }

// settle writes back what every input table's ORAMs (and the shared
// OneORAM, when set) still have queued, in one round for all of them
// (oram.Settle) under a "flush" child span, so the write-backs are charged
// to the query and the stashes return to their steady-state bound. The
// shares travel in canonical order: tables as the operator lists them, each
// table's ORAMs as StoredTable.ORAMs does. It then attaches the cumulative
// eviction-scheduler counters (write-backs, paths per write-back,
// upper-tree buckets deduped, write-backs that rode a download) to the span.
func settle(sp *telemetry.Span, opts Options, tables ...settler) error {
	fl := sp.Child("flush")
	defer fl.End()
	var all []oram.ORAM
	for _, t := range tables {
		all = append(all, t.ORAMs()...)
	}
	if opts.OneORAM != nil {
		all = append(all, opts.OneORAM)
	}
	if err := oram.Settle(all...); err != nil {
		return err
	}
	var stats []oram.PathStats
	for _, t := range tables {
		if pt, ok := t.(pathTelemeter); ok {
			stats = append(stats, pt.PathTelemetry()...)
		}
	}
	if opts.OneORAM != nil {
		stats = append(stats, opts.OneORAM.Telemetry())
	}
	var flushes, paths, deduped, exchanges int64
	for _, s := range stats {
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
	// BoundExceeded reports that the executed steps exceeded the theorem
	// bound before padding (never observed on the paper's workloads; see
	// DESIGN.md on the Observation 3 corner case). The result is still
	// correct, but the trace is longer than the bound.
	BoundExceeded bool
	// Stats is the traffic consumed by the join (when Options.Meter was
	// set): the communication cost the paper's figures plot.
	Stats storage.Stats
}
