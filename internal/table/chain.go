package table

import (
	"encoding/binary"
	"fmt"
	"sort"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
)

// ChainedTable is the index-free layout the paper notes Algorithm 1 can run
// on: "B-tree indices are not required for Algorithm 1. If each tuple keeps
// the pointer to the next tuple, succeeding tuples can be retrieved when
// needed through ORAM using the pointers." Every stored record carries the
// reference of its successor in join-attribute order; the client keeps only
// the head reference. A retrieval is then a single data-ORAM access (versus
// the leaf+data pair of the indexed layout). It keeps the schema and row
// count it was stored with and none of the caller's relation.
type ChainedTable struct {
	schema   relation.Schema
	n        int
	attrCol  int
	data     oram.ORAM
	perBlock int
	recSize  int
	head     btree.Ref
	hasHead  bool
}

const chainPtrSize = 8 + 2 + 1 // next block, next slot, has-next flag

// StoreChained uploads rel with tuples chained in ascending attr order.
func StoreChained(rel *relation.Relation, attr string, opts Options) (*ChainedTable, error) {
	if rel == nil {
		return nil, fmt.Errorf("table: nil relation")
	}
	if !opts.Raw && opts.Sealer == nil {
		return nil, fmt.Errorf("table: sealer required unless Raw")
	}
	col := rel.Schema.Col(attr)
	if col < 0 {
		return nil, fmt.Errorf("table: %s has no column %q", rel.Schema.Table, attr)
	}
	payload := opts.payload()
	recSize := rel.Schema.TupleSize() + chainPtrSize
	perBlock := payload / recSize
	if perBlock < 1 {
		return nil, fmt.Errorf("table: chained record size %d exceeds block payload %d", recSize, payload)
	}
	if perBlock > 0xFFFF {
		perBlock = 0xFFFF
	}
	n := len(rel.Tuples)
	// Sort tuple indices by the attribute (stable); this happens client-side
	// during preprocessing, so an ordinary sort is fine.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return rel.Tuples[order[i]].Values[col] < rel.Tuples[order[j]].Values[col]
	})
	refOf := func(i int) btree.Ref {
		return btree.Ref{Block: uint64(i / perBlock), Slot: i % perBlock}
	}
	// next[i] = successor of tuple i in attr order.
	blocks := (n + perBlock - 1) / perBlock
	if blocks == 0 {
		blocks = 1
	}
	payloads := make([][]byte, blocks)
	for b := range payloads {
		payloads[b] = make([]byte, payload)
	}
	for rank, i := range order {
		buf := payloads[i/perBlock][(i%perBlock)*recSize:]
		if err := relation.Encode(rel.Schema, rel.Tuples[i], buf); err != nil {
			return nil, err
		}
		ptr := buf[rel.Schema.TupleSize():]
		if rank+1 < n {
			succ := refOf(order[rank+1])
			binary.LittleEndian.PutUint64(ptr, succ.Block)
			binary.LittleEndian.PutUint16(ptr[8:], uint16(succ.Slot))
			ptr[10] = 1
		}
	}
	store, err := newStore(rel.Schema.Table+".chain", int64(blocks), opts)
	if err != nil {
		return nil, err
	}
	if err := bulkLoad(store, payloads); err != nil {
		return nil, err
	}
	ct := &ChainedTable{
		schema:   ownSchema(rel.Schema),
		n:        n,
		attrCol:  col,
		data:     store,
		perBlock: perBlock,
		recSize:  recSize,
	}
	if n > 0 {
		ct.head = refOf(order[0])
		ct.hasHead = true
	}
	return ct, nil
}

// Schema returns the stored relation's schema.
func (c *ChainedTable) Schema() relation.Schema { return c.schema }

// NumTuples returns the row count.
func (c *ChainedTable) NumTuples() int { return c.n }

// recordAt decodes the record at ref out of its fetched block: the tuple
// plus its successor.
func (c *ChainedTable) recordAt(ref btree.Ref, buf []byte) (relation.Tuple, btree.Ref, bool, error) {
	off := ref.Slot * c.recSize
	if off+c.recSize > len(buf) {
		return relation.Tuple{}, btree.Ref{}, false, fmt.Errorf("table: chained slot %d out of block", ref.Slot)
	}
	rec := buf[off : off+c.recSize]
	tu, ok, err := relation.Decode(c.schema, rec[:c.schema.TupleSize()])
	if err != nil || !ok {
		return relation.Tuple{}, btree.Ref{}, false, fmt.Errorf("table: chained slot holds dummy (%v)", err)
	}
	ptr := rec[c.schema.TupleSize():]
	var next btree.Ref
	hasNext := ptr[10] == 1
	if hasNext {
		next = btree.Ref{
			Block: binary.LittleEndian.Uint64(ptr),
			Slot:  int(binary.LittleEndian.Uint16(ptr[8:])),
		}
	}
	return tu, next, hasNext, nil
}

// ChainCursor walks a ChainedTable in attribute order: one data-ORAM access
// per retrieval, real or dummy.
type ChainCursor struct {
	t       *ChainedTable
	next    btree.Ref
	hasNext bool
}

// NewChainCursor returns a cursor at the chain head.
func NewChainCursor(t *ChainedTable) *ChainCursor {
	return &ChainCursor{t: t, next: t.head, hasNext: t.hasHead}
}

// Advance is the retrieval of the next tuple in attribute order (a dummy
// past the end).
func (c *ChainCursor) Advance() Move { return Move{c: c, kind: advance} }

// Hold is a retrieval indistinguishable from Advance that leaves the cursor
// where it is.
func (c *ChainCursor) Hold() Move { return Move{c: c} }

func (c *ChainCursor) shape() shape { return shape{data: c.t.data, dataLocal: oram.Local(c.t.data)} }

func (c *ChainCursor) open(bool) int8 { return 0 }

func (c *ChainCursor) begin(Move, int8) error { return nil }

// indexReq: the chain has no index stage, the previous record named this one.
func (c *ChainCursor) indexReq(Move, int8, int) (oram.Req, error) { return oram.Req{}, errNoIndex }

func (c *ChainCursor) landIndex(Move, int8, oram.Req) (Row, bool, error) {
	return Row{}, false, errNoIndex
}

func (c *ChainCursor) dataReq(mv Move, _ Row) oram.Req {
	if mv.kind == hold || !c.hasNext {
		return oram.Req{ORAM: c.t.data, Dummy: true}
	}
	return oram.Req{ORAM: c.t.data, Key: c.next.Block}
}

func (c *ChainCursor) landData(_ Move, _ Row, loaded oram.Req) (Row, error) {
	if loaded.Err != nil || loaded.Dummy {
		return Row{}, loaded.Err
	}
	tu, next, hasNext, err := c.t.recordAt(c.next, loaded.Data)
	if err != nil {
		return Row{}, err
	}
	row := Row{Tuple: tu, OK: true}
	row.Entry.Key = tu.Values[c.t.attrCol]
	c.next, c.hasNext = next, hasNext
	return row, nil
}

// ORAMs lists the chained table's one ORAM (the layout has no index), for
// the query's settle round.
func (c *ChainedTable) ORAMs() []oram.ORAM { return []oram.ORAM{c.data} }

// Mark captures the cursor position for Algorithm 1's "begin" rewind.
func (c *ChainCursor) Mark() ChainMark { return ChainMark{next: c.next, hasNext: c.hasNext} }

// Restore rewinds to a captured position (client-side bookkeeping only).
func (c *ChainCursor) Restore(m ChainMark) { c.next, c.hasNext = m.next, m.hasNext }

// ChainMark is an opaque chained-cursor position.
type ChainMark struct {
	next    btree.Ref
	hasNext bool
}
