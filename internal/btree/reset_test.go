package btree

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// resetTrees are the trees TestResetInLockstep resets together: 3 nodes
// (two leaves and a root), 7 nodes (four leaves under two levels), and 7
// nodes with the internal levels cached, of which the four leaves are
// outsourced.
var resetTrees = []struct {
	name   string
	keys   int
	cached bool
	nodes  int64 // outsourced
}{{"a", 10, false, 3}, {"b", 20, false, 7}, {"c", 20, true, 4}}

// resetWorld builds the reset trees, each over its own Path-ORAM named after
// it or, with shared set, over views into one Path-ORAM (the OneORAM
// setting), and disables every third entry of each. Equal calls build equal
// worlds: every ORAM draws its leaves from a seeded source.
func resetWorld(t *testing.T, m *storage.Meter, shared bool) []*Tree {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	newORAM := func(name string, capacity int64) *oram.PathORAM {
		o, err := oram.NewPathORAM(oram.PathConfig{
			Name: name, Capacity: capacity, PayloadSize: smallPayload,
			Meter: m, Sealer: sealer, Rand: oram.NewSeededSource(17),
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	var base *oram.PathORAM
	if shared {
		base = newORAM("shared", 32)
	}
	var trees []*Tree
	var offset uint64
	for _, rt := range resetTrees {
		nodes, err := NodeCount(rt.keys, smallPayload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{WriteBackDescents: true, CacheInternal: rt.cached}
		if shared {
			if cfg.ORAM, err = oram.NewView(base, offset, nodes); err != nil {
				t.Fatal(err)
			}
			offset += uint64(nodes)
		} else {
			cfg.ORAM = newORAM(rt.name, nodes)
		}
		tr := buildTree(t, seqKeys(rt.keys), cfg, m, smallPayload)
		if tr.outsourcedNodes() != uint64(rt.nodes) {
			t.Fatalf("tree %s outsources %d nodes, want %d", rt.name, tr.outsourcedNodes(), rt.nodes)
		}
		for o := int64(0); o < int64(rt.keys); o += 3 {
			if err := tr.Disable(o); err != nil {
				t.Fatal(err)
			}
		}
		trees = append(trees, tr)
	}
	return trees
}

// serialReset is the reset pass walking one tree after another, one node
// per round: what the lockstep pass must show each store.
func serialReset(trees ...*Tree) error {
	for _, tr := range trees {
		for _, n := range tr.cache {
			n.reset()
		}
		for id := uint64(0); id < tr.outsourcedNodes(); id++ {
			if _, err := tr.ORAM().Update(id, resetNode); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestResetInLockstep: the reset pass walks every tree at once, round r
// carrying the r-th outsourced node of each, so it takes as many rounds as
// the largest tree has outsourced nodes (7), not their sum (14), and shows
// each store exactly the accesses of walking its tree alone. Afterwards
// every entry is live. Over views into one Path-ORAM the trees cannot share
// a round, and the pass falls back to one access per round: the blocks and
// rounds of the serial walk.
func TestResetInLockstep(t *testing.T) {
	run := func(shared bool, reset func(...*Tree) error) ([]*Tree, []storage.Access, storage.Stats) {
		m := storage.NewMeter()
		trees := resetWorld(t, m, shared)
		m.Reset()
		m.SetTracing(true)
		if err := reset(trees...); err != nil {
			t.Fatal(err)
		}
		return trees, m.Trace(), m.Snapshot()
	}
	trees, lockstep, stats := run(false, Reset)
	_, serial, serialStats := run(false, serialReset)
	if stats.NetworkRounds != 7 || serialStats.NetworkRounds != 14 {
		t.Fatalf("the reset took %d rounds, the serial walk %d; want 7 and 14", stats.NetworkRounds, serialStats.NetworkRounds)
	}
	for _, rt := range resetTrees {
		if d := tracecheck.DiffExact(onStore(lockstep, rt.name), onStore(serial, rt.name)); d != "" {
			t.Errorf("store %s: the lockstep reset differs from the serial walk: %s", rt.name, d)
		}
	}
	var reads []string // the stores each round reads, round by round
	last := int64(-1)
	for _, a := range lockstep {
		if a.Kind != storage.KindRead {
			continue
		}
		if a.Round != last {
			reads, last = append(reads, ""), a.Round
		}
		if r := &reads[len(reads)-1]; !strings.Contains(*r, a.Store) {
			*r += a.Store
		}
	}
	if got := fmt.Sprint(reads); got != "[abc abc abc bc b b b]" {
		t.Errorf("stores read round by round: %s", got)
	}
	for i, tr := range trees {
		for o := int64(0); o < tr.NumEntries(); o++ {
			if e, ok, err := tr.LookupOrdGE(o); err != nil || !ok || e.Ord != o {
				t.Fatalf("tree %s after the reset: ordinal %d gives %+v ok=%v err=%v", resetTrees[i].name, o, e, ok, err)
			}
		}
	}

	_, _, viewStats := run(true, Reset)
	_, _, viewSerial := run(true, serialReset)
	if viewStats != viewSerial || viewStats.NetworkRounds != 14 {
		t.Fatalf("over views the reset moved %+v, the serial walk %+v", viewStats, viewSerial)
	}
}

// onStore returns the accesses of a trace to one store.
func onStore(trace []storage.Access, store string) []storage.Access {
	var out []storage.Access
	for _, a := range trace {
		if a.Store == store {
			out = append(out, a)
		}
	}
	return out
}
