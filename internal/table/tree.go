package table

import (
	"fmt"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
)

// TreeTable is a relation stored as the paper's Section 4.2 oblivious
// B-tree on one attribute: the tagged layout of btree, in a Path-ORAM that
// keeps no position map. Every internal entry carries its child's position
// tag, so the client holds only the root's, and every leaf entry carries its
// tuple (the tree is clustered), so there is no data ORAM and a retrieval is
// the descent alone. It keeps the schema and row count it was stored with
// and none of the caller's relation.
type TreeTable struct {
	schema relation.Schema
	n      int
	tree   *btree.Tree
	store  *oram.PathORAM
}

// StoreObliviousTree uploads rel as an oblivious B-tree keyed on attr, in a
// store named as Store names the index on attr. The tree has no cached
// levels and admits no disables, so opts.CacheIndex and
// opts.WriteBackDescents are refused; and it is a Path-ORAM, so Raw is too.
func StoreObliviousTree(rel *relation.Relation, attr string, opts Options) (*TreeTable, error) {
	switch {
	case rel == nil:
		return nil, fmt.Errorf("table: nil relation")
	case opts.Raw:
		return nil, fmt.Errorf("table: an oblivious tree lives in a Path-ORAM")
	case opts.Sealer == nil && opts.Keyring == nil:
		return nil, fmt.Errorf("table: sealer or keyring required")
	}
	col := rel.Schema.Col(attr)
	if col < 0 {
		return nil, fmt.Errorf("table: %s has no column %q", rel.Schema.Table, attr)
	}
	width := rel.Schema.TupleSize()
	items := make([]btree.Item, len(rel.Tuples))
	for i, tu := range rel.Tuples {
		items[i] = btree.Item{Key: tu.Values[col], Value: make([]byte, width)}
		if err := relation.Encode(rel.Schema, tu, items[i].Value); err != nil {
			return nil, err
		}
	}
	b, err := btree.ConstructTagged(opts.payload(), width, items)
	if err != nil {
		return nil, err
	}
	cfg, err := pathConfig(IndexStoreName(opts.StorePrefix, rel.Schema.Table, attr), b.NumNodes(), opts)
	if err != nil {
		return nil, err
	}
	store, err := oram.NewTagged(cfg)
	if err != nil {
		return nil, err
	}
	tree, err := btree.LoadTagged(btree.Config{
		ORAM:              store,
		CacheInternal:     opts.CacheIndex,
		WriteBackDescents: opts.WriteBackDescents,
	}, b)
	if err != nil {
		return nil, err
	}
	return &TreeTable{schema: ownSchema(rel.Schema), n: len(rel.Tuples), tree: tree, store: store}, nil
}

// Schema returns the stored relation's schema.
func (t *TreeTable) Schema() relation.Schema { return t.schema }

// NumTuples returns the row count (public sizing information).
func (t *TreeTable) NumTuples() int { return t.n }

// Tree exposes the tree.
func (t *TreeTable) Tree() *btree.Tree { return t.tree }

// Cursor returns a cursor over the tree: an IndexCursor without a data
// stage, whose every retrieval is one descent of Height() accesses.
func (t *TreeTable) Cursor() *IndexCursor {
	return &IndexCursor{tree: t.tree, schema: t.schema}
}

// ORAMs lists the table's one ORAM, for the query's settle round.
func (t *TreeTable) ORAMs() []oram.ORAM { return []oram.ORAM{t.store} }
