package query

import (
	"fmt"

	"oblivjoin/internal/table"
)

// IndexMeta is the public cost metadata of one B-tree index: everything is
// a constant of the instance geometry (tree shape, caching mode, ORAM
// levels), never of the indexed values.
type IndexMeta struct {
	// Attr is the indexed attribute.
	Attr string
	// AccessesPerRetrieval is the exact number of index-ORAM accesses one
	// lookup/disable/dummy performs: Δ, the outsourced levels.
	AccessesPerRetrieval int
	// KeyFree is how many leading accesses of a descent need no key
	// (btree.Tree.KeyFree): the root read, when the root is not cached.
	KeyFree int
	// OramAccessesPerOp is the server block operations one index-ORAM
	// access moves (for Path-ORAM 2·Levels(): the path's levels below the
	// treetop, down and up).
	OramAccessesPerOp int
	// BlockBytes is the size of one of those block operations: the index
	// store's sealed block.
	BlockBytes int
	// ResetNodes is the number of index nodes the post-multiway reset pass
	// (btree.Reset) touches with one ORAM access each (leaves only in
	// "+Cache" mode).
	ResetNodes int64
	// Store is the index ORAM's store name, for per-store attribution.
	Store string
}

// TableMeta is the public cost metadata of one stored table.
type TableMeta struct {
	// Name is the table name.
	Name string
	// Rows is the (padded, for prepared inputs) tuple count the join sees.
	Rows int64
	// DataAccessesPerOp is the server block operations one data-ORAM
	// access moves.
	DataAccessesPerOp int
	// DataBlockBytes is the size of one of those block operations: the
	// data store's sealed block.
	DataBlockBytes int
	// DataStore is the data ORAM's store name.
	DataStore string
	// Indexes maps attribute name to index metadata.
	Indexes map[string]IndexMeta
}

// Index returns the metadata of the index on attr, if built.
func (t TableMeta) Index(attr string) (IndexMeta, bool) {
	m, ok := t.Indexes[attr]
	return m, ok
}

// Catalog is the planner's entire input: per-table public metadata keyed by
// table name.
type Catalog map[string]TableMeta

// Describe extracts the catalog from a set of stored tables. Every field
// read here is instance geometry (row counts, tree shapes, ORAM level
// counts, block sizes, store names) — public sizing information under the paper's
// leakage definition, and exactly what the server already observes.
func Describe(tables map[string]*table.StoredTable) Catalog {
	cat := make(Catalog, len(tables))
	for name, st := range tables {
		tm := TableMeta{
			Name:              name,
			Rows:              int64(st.NumTuples()),
			DataAccessesPerOp: st.DataAccessesPerOp(),
			DataBlockBytes:    st.DataBlockBytes(),
			DataStore:         table.DataStoreName(st.StorePrefix(), st.Schema().Table),
			Indexes:           make(map[string]IndexMeta),
		}
		for _, attr := range st.IndexAttrs() {
			tr, err := st.Index(attr)
			if err != nil {
				continue // unreachable: IndexAttrs listed it
			}
			resetNodes := tr.NumNodes()
			if tr.OutsourcedLevels() < tr.Height() {
				resetNodes = tr.LeafCount() // internal levels are client-cached
			}
			tm.Indexes[attr] = IndexMeta{
				Attr:                 attr,
				AccessesPerRetrieval: tr.AccessesPerRetrieval(),
				KeyFree:              tr.KeyFree(),
				OramAccessesPerOp:    tr.ORAM().AccessesPerOp(),
				BlockBytes:           tr.ORAM().BlockBytes(),
				ResetNodes:           resetNodes,
				Store:                table.IndexStoreName(st.StorePrefix(), st.Schema().Table, attr),
			}
		}
		cat[name] = tm
	}
	return cat
}

func (c Catalog) lookup(name string) (TableMeta, error) {
	tm, ok := c[name]
	if !ok {
		return TableMeta{}, fmt.Errorf("query: table %q not in catalog", name)
	}
	return tm, nil
}
