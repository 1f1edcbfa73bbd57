package query

import (
	"fmt"
	"sort"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
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
	// The join steps run in a table.Pipeline — a tree serves one access per
	// round, but for a root read ahead, and a step's first index accesses
	// ride the previous step's last round — so the rounds are
	// table.PlanPipeline's over the inputs' public geometry, which looks
	// ahead where the pipeline does: a scanned table then holds its next
	// tuple, fetching the first by one access more, and an uncached descent
	// reads the next step's root in this step's rounds — beside its own
	// first keyed access, in one share of the index's tree, unless its
	// descents pin what they read (the multiway join's, on write-back
	// indexes). With n the padded step count and h the inner index's
	// accesses per retrieval, that is
	//
	//	sort-merge                  n + 1         {T1.idx(i+1), T2.idx(i+1), T1.data(i), T2.data(i)}
	//	band, h ≥ 2                 (h−1)·n + 2   {T2.data(i−1), T1.data(i), T2.leaf(i) + T2.root(i+1)} at h = 2
	//	band, cached                n + 1         T1.data(i) and T2.data(i−1) ride T2's access
	//	index nested-loop, h ≥ 2    (h−1)·n + 2   looks ahead: {T1.data(t+1), T2.leaf(i) + T2.root(i+1), T2.data(i−1)} at h = 2
	//	index nested-loop, cached   n + 2         looks ahead: {T1.data(t+1), T2.leaf(i), T2.data(i−1)}
	//	multiway                    a stage per level of keyed dependencies below the scan,
	//	                            an entry-keyed child's free (a chain at h = 2: 2n + 2)
	//
	// A round whose accesses all fall on trees of one leaf, which run in the
	// client's stash (table.Lane.IndexLocal, DataLocal), is no round, so the
	// table holds where every lane keeps its trees on the server.
	//
	// The root read ahead for the step after the last is parked: one index
	// access more (table.PipelinePlan.Parked). Add to the table above the
	// multiway join's reset pass, which walks every index in
	// lockstep, one round per node of the largest index kept on the server
	// (a root read ahead for a step that never came is reset without one),
	// and one settle round, in which every touched tree's last write-back
	// travels when the query ends (core.settle) — none when no touched tree
	// keeps anything on the server.
	Rounds int64
	// PerStore maps store name to predicted block operations — the exact
	// counts the predicted-vs-measured guard checks against the Meter's
	// trace, store by store.
	PerStore map[string]int64
}

// PrepareCost is the predicted traffic of building one filtered input. The
// scan reads every stored bucket of the base table's data tree once, and
// the upload writes every stored bucket of each prepared tree once, each in
// batched rounds (oram.BatchRounds). A write-back the base tree still has
// queued rides the scan's first round; joins settle their inputs, so it is
// zero unless the base was accessed outside one. The build is common to
// every candidate plan, so it does not enter their ranking.
type PrepareCost struct {
	ScanBlocks, ScanRounds     int64
	WriteBackBlocks            int64
	UploadBlocks, UploadRounds int64
}

// storedBuckets is the number of buckets o keeps on the server.
func storedBuckets(o oram.ORAM) int64 { return o.ServerBytes() / int64(o.BlockBytes()) }

// scanCost prices the scan of base's data tree: public geometry, and the
// union of the paths its queued write-back covers. Read it before the
// build, whose scan settles that write-back.
func scanCost(base *table.StoredTable) PrepareCost {
	data := base.ORAMs()[0]
	scan := storedBuckets(data)
	c := PrepareCost{ScanBlocks: scan, ScanRounds: oram.BatchRounds(scan)}
	if o, ok := data.(*oram.PathORAM); ok {
		c.WriteBackBlocks = o.PendingWrites()
	}
	return c
}

// addUpload prices the upload of built's trees: the stored buckets of each.
func (c *PrepareCost) addUpload(built *table.StoredTable) {
	for _, o := range built.ORAMs() {
		c.UploadBlocks += storedBuckets(o)
		c.UploadRounds += oram.BatchRounds(storedBuckets(o))
	}
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

// price adds the accesses of the operator's pipelined steps over the given
// lanes (table.PlanPipeline), at the per-access costs of the lanes' tables
// and indexes, and returns the plan.
func (c *Cost) price(lanes []table.Lane, metas []TableMeta, indexes []IndexMeta) table.PipelinePlan {
	plan := table.PlanPipeline(lanes, c.Steps)
	for j, l := range lanes {
		if l.Index != "" {
			c.addIndex(indexes[j], plan.IndexAccesses[j])
		}
		c.addData(metas[j], plan.DataAccesses[j])
	}
	return plan
}

// setRounds records the operator's round count: the given rounds and the
// one that settles the trees they touched — none when every tree they
// touched keeps nothing on the server, so has no write-back to settle.
func (c *Cost) setRounds(rounds int64) {
	c.Rounds = rounds
	if c.Blocks > 0 {
		c.Rounds++
	}
}

// scanLane is a table scanned by block, indexLane a table retrieved through
// a descent of the given index whose keyed accesses wait as w says, pinning
// what it reads when pins is set (a multiway join's disabling descent).
// A store whose accesses move no block (a Path-ORAM of one leaf) is local to
// the client (table.Lane.IndexLocal, DataLocal).
func scanLane(m TableMeta) table.Lane {
	return table.Lane{Data: m.DataStore, DataLocal: m.DataAccessesPerOp == 0, Wait: table.Wait{After: -1}}
}

func indexLane(m TableMeta, idx IndexMeta, w table.Wait, pins bool) table.Lane {
	return table.Lane{
		Index: idx.Store, Data: m.DataStore,
		Accesses: idx.AccessesPerRetrieval, KeyFree: idx.KeyFree, Pins: pins, Wait: w,
		IndexLocal: idx.OramAccessesPerOp == 0, DataLocal: m.DataAccessesPerOp == 0,
	}
}

// leafLane is a table walked along its index's leaves (table.LeafCursor):
// one leaf access, keyed by nothing.
func leafLane(m TableMeta, idx IndexMeta) table.Lane {
	return table.Lane{
		Index: idx.Store, Data: m.DataStore, Accesses: 1, KeyFree: 1, Wait: table.Wait{After: -1},
		IndexLocal: idx.OramAccessesPerOp == 0, DataLocal: m.DataAccessesPerOp == 0,
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
	c := Cost{Steps: core.NumtrSortMerge(m1.Rows, m2.Rows, paddedR)}
	c.setRounds(c.price([]table.Lane{leafLane(m1, i1), leafLane(m2, i2)}, []TableMeta{m1, m2}, []IndexMeta{i1, i2}).Rounds)
	return c, nil
}

// inljCost prices the index nested-loop join with the given outer/inner
// roles (equi and band joins share the bound: Numtr = |outer| + |R̂|). Each
// step is one outer data access plus one full index descent
// (AccessesPerRetrieval index accesses) and one data access on the inner.
// The band join moves the same blocks, but its first inner retrieval of an
// outer tuple seeks a fixed end of the index, so no access waits for the
// outer tuple.
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
	c := Cost{Steps: core.NumtrINLJ(mo.Rows, paddedR)}
	w := table.Wait{After: 0}
	if band {
		w.After = -1
	}
	c.setRounds(c.price([]table.Lane{scanLane(mo), indexLane(mi, idx, w, false)}, []TableMeta{mo, mi}, []IndexMeta{{}, idx}).Rounds)
	return c, nil
}

// multiwayCost prices the acyclic multiway join over the given join tree:
// Numtr4 = |root| + 2·Σ_{j≥2}|Tj| + |R̂| steps, each retrieving one tuple
// from every table (root by scan, non-roots by index descent), their lanes
// waiting as core.MultiwayWaits derives from the tree, plus the post-query
// reset pass over every index of every non-root table: one ORAM access per
// non-cached node, every index in lockstep (btree.Reset), so the pass takes
// the rounds of the largest index; a root the last step read ahead for a
// step that never came (table.PipelinePlan.Parked) is reset without one.
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
	c := Cost{Steps: core.NumtrMultiway(sizes, paddedR)}
	lanes := []table.Lane{scanLane(metas[0])}
	indexes := make([]IndexMeta, tree.Len())
	waits := core.MultiwayWaits(tree)
	for i := 1; i < tree.Len(); i++ {
		node := tree.Order[i]
		idx, ok := metas[i].Index(node.Attr)
		if !ok {
			return Cost{}, fmt.Errorf("no index on %s.%s", node.Table, node.Attr)
		}
		indexes[i] = idx
		lanes = append(lanes, indexLane(metas[i], idx, waits[i], idx.WriteBackDescents))
	}
	plan := c.price(lanes, metas, indexes)
	var reset int64
	for i := 1; i < tree.Len(); i++ {
		for _, im := range sortedIndexes(metas[i]) {
			nodes := im.ResetNodes
			if im.Attr == tree.Order[i].Attr && plan.Parked[i] {
				nodes-- // the root the last step read ahead is reset client-side
			}
			c.addIndex(im, nodes)
			if im.OramAccessesPerOp > 0 { // a local index resets in the stash
				reset = max(reset, nodes)
			}
		}
	}
	c.setRounds(plan.Rounds + reset)
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
