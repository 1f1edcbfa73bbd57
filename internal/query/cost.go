package query

import (
	"fmt"
	"sort"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/storage"
)

// Cost is a candidate plan's predicted input-side access cost, derived from
// the Theorem 1–4 retrieval bounds and the catalog's fixed per-access ORAM
// costs. It covers the join's input-table traffic only: the output vector
// (write, oblivious filter, decode) costs the same for every candidate at a
// given padded result size, so it cancels out of operator choice and is
// excluded to keep the per-store predictions exactly checkable.
type Cost struct {
	// Steps is the padded join-step count (the theorem bound at the padded
	// result size) — Result.PaddedSteps when the prediction is exact.
	Steps int64
	// ORAMOps is the total number of ORAM accesses across input stores.
	ORAMOps int64
	// Blocks is the total predicted server block operations (reads+writes).
	Blocks int64
	// Bytes is what those operations move: each store's blocks at that
	// store's sealed block size.
	Bytes int64
	// Rounds is the predicted network rounds — what the Meter will count,
	// at every EvictionBatch — priced per operator because operators differ
	// in which accesses share a round. A Path-ORAM access costs one round:
	// its path download, which carries the write-back the tree has queued.
	// The operators whose per-table retrievals are independent in every step
	// issue them in lockstep, one round per stage for both tables
	// (table.Step):
	//
	//	sort-merge          2·n        index stage, data stage
	//	band                (h+1)·n    h descent accesses, then both data accesses together
	//	index nested-loop   (h+2)·n    the probe needs the outer tuple's key: sequential
	//	multiway            ORAMOps    children depend on the parent's row: sequential
	//
	// with n the padded step count and h the inner index's accesses per
	// retrieval — plus one settle round, in which every touched tree's last
	// write-back travels when the query ends (core.settle).
	Rounds int64
	// PerStore maps store name to predicted block operations — the exact
	// counts the predicted-vs-measured guard checks against the Meter's
	// trace, store by store.
	PerStore map[string]int64
}

// addData prices oramOps accesses to a table's data ORAM; addIndex to one of
// its index ORAMs.
func (c *Cost) addData(m TableMeta, oramOps int64) {
	c.add(m.DataStore, oramOps, m.DataAccessesPerOp, m.DataBlockBytes)
}

func (c *Cost) addIndex(m IndexMeta, oramOps int64) {
	c.add(m.Store, oramOps, m.OramAccessesPerOp, m.BlockBytes)
}

func (c *Cost) add(store string, oramOps int64, accessesPerOp, blockBytes int) {
	if c.PerStore == nil {
		c.PerStore = make(map[string]int64)
	}
	blocks := oramOps * int64(accessesPerOp)
	c.PerStore[store] += blocks
	c.ORAMOps += oramOps
	c.Blocks += blocks
	c.Bytes += blocks * int64(blockBytes)
}

// Time is the cost the planner ranks by: the paper's cost model
// (storage.DefaultCostModel, the one every figure is rendered with) applied
// to the predicted bytes and rounds. Operators differ several-fold in rounds
// per block, so the fewest blocks is not the fastest plan.
func (c *Cost) Time() time.Duration {
	return storage.DefaultCostModel().Cost(storage.Stats{BytesRead: c.Bytes, NetworkRounds: c.Rounds})
}

// setRounds records the operator's round count: the rounds its accesses are
// fetched in, and the one that settles the trees they touched.
func (c *Cost) setRounds(fetch int64) {
	c.Rounds = fetch
	if c.ORAMOps > 0 {
		c.Rounds++
	}
}

// smjCost prices the sort-merge equi-join t1.a1 = t2.a2: Numtr1 = |T1| +
// |T2| + |R̂| + 1 retrievals per table, each one leaf-level index access
// plus one data access (LeafCursor).
func smjCost(cat Catalog, t1, a1, t2, a2 string, paddedR int64) (Cost, error) {
	m1, err := cat.lookup(t1)
	if err != nil {
		return Cost{}, err
	}
	m2, err := cat.lookup(t2)
	if err != nil {
		return Cost{}, err
	}
	i1, ok := m1.Index(a1)
	if !ok {
		return Cost{}, fmt.Errorf("no index on %s.%s", t1, a1)
	}
	i2, ok := m2.Index(a2)
	if !ok {
		return Cost{}, fmt.Errorf("no index on %s.%s", t2, a2)
	}
	n := core.NumtrSortMerge(m1.Rows, m2.Rows, paddedR)
	c := Cost{Steps: n}
	c.addIndex(i1, n)
	c.addData(m1, n)
	c.addIndex(i2, n)
	c.addData(m2, n)
	c.setRounds(2 * n)
	return c, nil
}

// inljCost prices the index nested-loop join with the given outer/inner
// roles (equi and band joins share the bound: Numtr = |outer| + |R̂|). Each
// step is one outer data access plus one full index descent
// (AccessesPerRetrieval index accesses) and one data access on the inner.
// The band join moves the same blocks but issues the step's two data
// accesses together, which saves a round per step.
func inljCost(cat Catalog, outer, inner, innerAttr string, paddedR int64, band bool) (Cost, error) {
	mo, err := cat.lookup(outer)
	if err != nil {
		return Cost{}, err
	}
	mi, err := cat.lookup(inner)
	if err != nil {
		return Cost{}, err
	}
	idx, ok := mi.Index(innerAttr)
	if !ok {
		return Cost{}, fmt.Errorf("no index on %s.%s", inner, innerAttr)
	}
	n := core.NumtrINLJ(mo.Rows, paddedR)
	c := Cost{Steps: n}
	c.addData(mo, n)
	c.addIndex(idx, n*int64(idx.AccessesPerRetrieval))
	c.addData(mi, n)
	stages := int64(idx.AccessesPerRetrieval) + 2
	if band {
		stages--
	}
	c.setRounds(stages * n)
	return c, nil
}

// multiwayCost prices the acyclic multiway join over the given join tree:
// Numtr4 = |root| + 2·Σ_{j≥2}|Tj| + |R̂| steps, each retrieving one tuple
// from every table (root by scan, non-roots by index descent), plus the
// post-query Reset pass over every index of every non-root table (one ORAM
// access per non-cached node).
func multiwayCost(cat Catalog, tree *jointree.Tree, paddedR int64) (Cost, error) {
	sizes := make([]int64, tree.Len())
	metas := make([]TableMeta, tree.Len())
	for i, node := range tree.Order {
		m, err := cat.lookup(node.Table)
		if err != nil {
			return Cost{}, err
		}
		metas[i], sizes[i] = m, m.Rows
	}
	n := core.NumtrMultiway(sizes, paddedR)
	c := Cost{Steps: n}
	c.addData(metas[0], n)
	for i, node := range tree.Order {
		if i == 0 {
			continue
		}
		idx, ok := metas[i].Index(node.Attr)
		if !ok {
			return Cost{}, fmt.Errorf("no index on %s.%s", node.Table, node.Attr)
		}
		c.addIndex(idx, n*int64(idx.AccessesPerRetrieval))
		c.addData(metas[i], n)
		// Reset pass: ResetIndexes walks every index of the table.
		for _, im := range sortedIndexes(metas[i]) {
			c.addIndex(im, im.ResetNodes)
		}
	}
	c.setRounds(c.ORAMOps)
	return c, nil
}

// sortedIndexes returns a table's index metadata in attribute order, so
// cost accumulation (and any float-free arithmetic on it) is deterministic.
func sortedIndexes(m TableMeta) []IndexMeta {
	out := make([]IndexMeta, 0, len(m.Indexes))
	for _, attr := range sortedKeys(m.Indexes) {
		out = append(out, m.Indexes[attr])
	}
	return out
}

func sortedKeys(m map[string]IndexMeta) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
