package core

import (
	"fmt"
	"slices"
	"testing"

	"oblivjoin/internal/tracecheck"
)

// keySequences returns every key column of length 1 to maxLen over the
// keys 1..domain.
func keySequences(domain, maxLen int) [][]int64 {
	out := [][]int64{}
	level := [][]int64{{}}
	for n := 1; n <= maxLen; n++ {
		var next [][]int64
		for _, seq := range level {
			for k := int64(1); k <= int64(domain); k++ {
				next = append(next, append(append([]int64(nil), seq...), k))
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}

// publicClass is what Definition 1 lets the server learn of a run: the
// input sizes, and what the padding mode declares of the output — its size
// under PadNone, the padded step count under ClosestPower, nothing more
// under Cartesian.
type publicClass struct {
	n1, n2 int
	out    int64
}

func classOf(mode PaddingMode, k1, k2 []int64, res *Result) publicClass {
	c := publicClass{n1: len(k1), n2: len(k2)}
	switch mode {
	case PadNone:
		c.out = int64(res.RealCount)
	case PadClosestPower:
		c.out = res.PaddedSteps
	}
	return c
}

// TestDefinition1Exhaustive checks Definition 1 at small scope: the trace is
// a function of the public sizes alone, for every input. It runs every join
// of lockstepOperators on every pair of key columns over the keys 1 and 2,
// each of length 1 to 3 (2 under -short), at every padding mode that
// declares a size — RealSize, ClosestPower, CartesianProduct — in the
// SepORAM setting at EvictionBatch 1 and in the OneORAM setting, and groups
// the runs by public class only (classOf). Within a class every trace must
// be identical, round ordinals included (tracecheck.Diff), and so must the
// round count. Where the twin tests compare two databases chosen to differ,
// this compares every database of a class with every other, at inputs of up
// to three rows a table — in the SepORAM setting T2's followed by four rows
// that match nothing, so that its index is two levels deep and the pipeline
// reads its roots ahead. It covers the TestLockstepTwinTraces subtests
// <op>/{RealSize,ClosestPower,CartesianProduct}/k=1 for every operator and
// <op>/{RealSize,ClosestPower,CartesianProduct}/one for all but smj-chained
// and inlj-tree, which have no OneORAM form; it leaves to them DP padding,
// k = 4, the cached indexes and the larger inputs.
func TestDefinition1Exhaustive(t *testing.T) {
	// In the SepORAM setting T2's column ends in four keys no T1 key
	// matches (nor, being even, T3 holds the partner of), so that T2's
	// index is two levels deep — at the twin payload a leaf holds four
	// entries — and every descent reads its root, key-free, ahead of its
	// move. The OneORAM setting reads nothing ahead.
	innerFiller := []int64{12, 14, 16, 18}
	maxLen := 3
	if testing.Short() {
		maxLen = 2
	}
	seqs := keySequences(2, maxLen)
	for _, op := range lockstepOperators {
		for _, tc := range []twinConfig{twinConfigs[0], twinConfigs[3]} {
			if op.noOne && tc.one {
				continue
			}
			for _, mode := range []PaddingMode{PadNone, PadClosestPower, PadCartesian} {
				t.Run(fmt.Sprintf("%s/%v/%s", op.name, mode, tc.name), func(t *testing.T) {
					type seen struct {
						k1, k2 []int64
						run    traced
					}
					first := map[publicClass]seen{}
					for _, k1 := range seqs {
						for _, seq := range seqs {
							k2 := seq
							if !tc.one {
								k2 = append(slices.Clone(seq), innerFiller...)
							}
							run := twinTrace(t, op.run, k1, k2, mode, tc)
							c := classOf(mode, k1, k2, run.res)
							was, ok := first[c]
							if !ok {
								first[c] = seen{k1, k2, run}
								continue
							}
							if was.run.stats.NetworkRounds != run.stats.NetworkRounds {
								t.Fatalf("class %+v: %v ⋈ %v took %d rounds, %v ⋈ %v %d",
									c, was.k1, was.k2, was.run.stats.NetworkRounds, k1, k2, run.stats.NetworkRounds)
							}
							if d := tracecheck.Diff(was.run.trace, run.trace); d != "" {
								t.Fatalf("class %+v: %v ⋈ %v and %v ⋈ %v are distinguishable: %s", c, was.k1, was.k2, k1, k2, d)
							}
						}
					}
				})
			}
		}
	}
}
