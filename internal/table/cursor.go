package table

import (
	"fmt"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
)

// Row is the result of one tuple retrieval: the decoded tuple, the index
// entry it came from (when retrieved through an index), and OK=false for a
// dummy / past-the-end retrieval (the paper's ⊥).
type Row struct {
	Tuple relation.Tuple
	Entry btree.Entry
	OK    bool
}

// ScanCursor iterates a table's data blocks in storage order — the outer
// (root) table role of the index nested-loop joins, where "we retrieve
// tuples from T1 one by one according to sequential block IDs". Every
// retrieval, real or dummy, performs exactly one data-ORAM access.
type ScanCursor struct {
	t   *StoredTable
	pos int
}

// NewScanCursor returns a cursor at the first tuple.
func NewScanCursor(t *StoredTable) *ScanCursor { return &ScanCursor{t: t} }

// Advance is the retrieval of the next tuple (a dummy once past the end).
func (c *ScanCursor) Advance() Move { return Move{c: c, kind: advance} }

// Hold is a retrieval indistinguishable from Advance that leaves the cursor
// where it is.
func (c *ScanCursor) Hold() Move { return Move{c: c} }

// Next retrieves the next tuple, or a dummy once past the end.
func (c *ScanCursor) Next() (Row, error) { return step1(c.Advance()) }

// Dummy performs an access indistinguishable from Next without advancing.
func (c *ScanCursor) Dummy() error {
	_, err := step1(c.Hold())
	return err
}

func (c *ScanCursor) ref() btree.Ref {
	return btree.Ref{Block: uint64(c.pos / c.t.perBlock), Slot: c.pos % c.t.perBlock}
}

func (c *ScanCursor) locate(Move) (oram.Req, bool, error) { return oram.Req{}, false, nil }

func (c *ScanCursor) load(mv Move, _ oram.Req) (oram.Req, error) {
	if mv.kind == hold || c.pos >= c.t.NumTuples() {
		return c.t.dummyReq(), nil
	}
	return c.t.tupleReq(c.ref()), nil
}

func (c *ScanCursor) take(_ Move, loaded oram.Req) (Row, error) {
	if loaded.Dummy {
		return Row{}, nil
	}
	tu, ok, err := c.t.tupleAt(c.ref(), loaded.Data)
	if err != nil {
		return Row{}, err
	}
	if !ok {
		return Row{}, fmt.Errorf("table: scan hit dummy slot at %d", c.pos)
	}
	c.pos++
	return Row{Tuple: tu, OK: true}, nil
}

// DummyBatch performs n dummy accesses with their path downloads coalesced
// into one round when the data ORAM supports it. Only safe where n is a
// function of public quantities (the all-dummy padding loops).
func (c *ScanCursor) DummyBatch(n int) error { return c.t.DummyDataBatch(n) }

// Pos returns the number of tuples consumed.
func (c *ScanCursor) Pos() int { return c.pos }

// LeafCursor iterates a table in index (attribute) order by walking the
// B-tree leaf level — the sort-merge join's retrieval primitive: each
// retrieval is one index-ORAM access (the leaf) plus one data-ORAM access,
// real or dummy, so all retrievals are indistinguishable.
type LeafCursor struct {
	t    *StoredTable
	tree *btree.Tree
	pos  int64       // ordinal of the next entry to retrieve
	ent  btree.Entry // the entry of the retrieval in progress
}

// NewLeafCursor returns a cursor over the index on attr, positioned before
// the first entry.
func NewLeafCursor(t *StoredTable, attr string) (*LeafCursor, error) {
	tree, err := t.Index(attr)
	if err != nil {
		return nil, err
	}
	return &LeafCursor{t: t, tree: tree}, nil
}

// Advance is the retrieval of the tuple at the cursor, after which the
// cursor moves on; past the end it is a dummy and yields the ⊥ tuple that
// Algorithm 1 ranks behind every real tuple.
func (c *LeafCursor) Advance() Move { return Move{c: c, kind: advance} }

// Hold is a retrieval indistinguishable from Advance that leaves the cursor
// where it is.
func (c *LeafCursor) Hold() Move { return Move{c: c} }

// Next retrieves the tuple at the cursor and advances; past the end it
// performs the same accesses and returns a dummy Row.
func (c *LeafCursor) Next() (Row, error) { return step1(c.Advance()) }

// Dummy performs accesses indistinguishable from Next without advancing.
func (c *LeafCursor) Dummy() error {
	_, err := step1(c.Hold())
	return err
}

func (c *LeafCursor) dummy(mv Move) bool { return mv.kind == hold || c.pos >= c.tree.NumEntries() }

// locate is the leaf access: one index-ORAM access a step can share.
func (c *LeafCursor) locate(mv Move) (oram.Req, bool, error) {
	if c.dummy(mv) {
		return c.tree.DummyReq(), true, nil
	}
	req, err := c.tree.LeafReq(c.tree.LeafFor(c.pos))
	return req, true, err
}

// load picks the cursor's entry out of the fetched leaf — the cursor keeps
// it until take — and asks for the block it points at.
func (c *LeafCursor) load(mv Move, located oram.Req) (oram.Req, error) {
	if c.dummy(mv) {
		return c.t.dummyReq(), nil
	}
	ents, err := btree.LeafEntries(located.Data)
	if err != nil {
		return oram.Req{}, err
	}
	c.ent = ents[int(c.pos)%c.tree.LeafFanoutEntries()]
	return c.t.tupleReq(c.ent.Ref), nil
}

func (c *LeafCursor) take(_ Move, loaded oram.Req) (Row, error) {
	if loaded.Dummy {
		return Row{}, nil
	}
	tu, ok, err := c.t.tupleAt(c.ent.Ref, loaded.Data)
	if err != nil {
		return Row{}, err
	}
	if !ok {
		return Row{}, fmt.Errorf("table: leaf entry ord %d points at dummy slot", c.pos)
	}
	c.pos++
	return Row{Tuple: tu, Entry: c.ent, OK: true}, nil
}

// DummyBatch performs n dummy retrievals (n index accesses, then n data
// accesses) with each ORAM's downloads coalesced when supported. The
// per-store access counts match n sequential Dummy calls exactly; only the
// round grouping — a function of the public batch size — changes.
func (c *LeafCursor) DummyBatch(n int) error {
	if err := oram.DummyBatch(c.tree.ORAM(), n); err != nil {
		return err
	}
	return c.t.DummyDataBatch(n)
}

// Pos returns the ordinal of the next entry.
func (c *LeafCursor) Pos() int64 { return c.pos }

// SeekOrd repositions the cursor (client-side bookkeeping only; Algorithm 1's
// "tuple[2] := begin" restores a saved position without a retrieval).
func (c *LeafCursor) SeekOrd(ord int64) { c.pos = ord }

// IndexCursor retrieves tuples through full B-tree descents — the inner
// table role of the index nested-loop joins. Every operation (seek, advance,
// or dummy) performs exactly tree.AccessesPerRetrieval() index-ORAM accesses
// plus one data-ORAM access.
type IndexCursor struct {
	t    *StoredTable
	tree *btree.Tree
	cur  btree.Entry
	ok   bool
}

// NewIndexCursor returns a cursor over the index on attr.
func NewIndexCursor(t *StoredTable, attr string) (*IndexCursor, error) {
	tree, err := t.Index(attr)
	if err != nil {
		return nil, err
	}
	return &IndexCursor{t: t, tree: tree}, nil
}

// Tree exposes the underlying index (for disable operations).
func (c *IndexCursor) Tree() *btree.Tree { return c.tree }

// Current returns the entry the cursor rests on.
func (c *IndexCursor) Current() (btree.Entry, bool) { return c.cur, c.ok }

// locate runs the whole descent. Each level's node names the next, so the
// accesses depend on one another and the cursor performs them itself; a step
// has nothing of this stage to share.
func (c *IndexCursor) locate(mv Move) (oram.Req, bool, error) {
	var ent btree.Entry
	var found bool
	var err error
	switch mv.kind {
	case hold:
		return oram.Req{}, false, c.tree.DummyOp()
	case seekKeyGE:
		ent, found, err = c.tree.LookupGE(mv.arg)
	case seekOrdGE:
		ent, found, err = c.tree.LookupOrdGE(mv.arg)
	case seekOrdLE:
		ent, found, err = c.tree.LookupOrdLE(mv.arg)
	case advance, retreat:
		if !c.ok {
			return oram.Req{}, false, fmt.Errorf("table: Next or Prev on unpositioned cursor")
		}
		if mv.kind == advance {
			ent, found, err = c.tree.LookupOrdGE(c.cur.Ord + 1)
		} else {
			ent, found, err = c.tree.LookupOrdLE(c.cur.Ord - 1)
		}
	}
	if err != nil {
		return oram.Req{}, false, err
	}
	c.cur, c.ok = ent, found
	return oram.Req{}, false, nil
}

func (c *IndexCursor) load(mv Move, _ oram.Req) (oram.Req, error) {
	if mv.kind == hold || !c.ok {
		return c.t.dummyReq(), nil
	}
	return c.t.tupleReq(c.cur.Ref), nil
}

func (c *IndexCursor) take(_ Move, loaded oram.Req) (Row, error) {
	if loaded.Dummy {
		return Row{}, nil
	}
	tu, ok, err := c.t.tupleAt(c.cur.Ref, loaded.Data)
	if err != nil {
		return Row{}, err
	}
	if !ok {
		return Row{}, fmt.Errorf("table: entry ord %d points at dummy slot", c.cur.Ord)
	}
	return Row{Tuple: tu, Entry: c.cur, OK: true}, nil
}

// MoveOrdGE is the retrieval SeekOrdGE performs.
func (c *IndexCursor) MoveOrdGE(o int64) Move { return Move{c: c, kind: seekOrdGE, arg: o} }

// MoveOrdLE is the retrieval SeekOrdLE performs.
func (c *IndexCursor) MoveOrdLE(o int64) Move { return Move{c: c, kind: seekOrdLE, arg: o} }

// MoveNext is the retrieval Next performs.
func (c *IndexCursor) MoveNext() Move { return Move{c: c, kind: advance} }

// MovePrev is the retrieval Prev performs.
func (c *IndexCursor) MovePrev() Move { return Move{c: c, kind: retreat} }

// Hold is a retrieval indistinguishable from a seek or advance that leaves
// the cursor where it is.
func (c *IndexCursor) Hold() Move { return Move{c: c} }

// SeekGE positions at the first live entry with key >= k and retrieves its
// tuple (Algorithm 2's getFirst(tuple.key)).
func (c *IndexCursor) SeekGE(k int64) (Row, error) {
	return step1(Move{c: c, kind: seekKeyGE, arg: k})
}

// SeekOrdGE positions at the first live entry with ordinal >= o (band joins
// start ascending passes at ordinal 0).
func (c *IndexCursor) SeekOrdGE(o int64) (Row, error) { return step1(c.MoveOrdGE(o)) }

// SeekOrdLE positions at the last live entry with ordinal <= o (band joins
// start descending passes at the last entry).
func (c *IndexCursor) SeekOrdLE(o int64) (Row, error) { return step1(c.MoveOrdLE(o)) }

// Next advances to the next live entry in ordinal order.
func (c *IndexCursor) Next() (Row, error) { return step1(c.MoveNext()) }

// Prev advances to the previous live entry in ordinal order.
func (c *IndexCursor) Prev() (Row, error) { return step1(c.MovePrev()) }

// Dummy performs accesses indistinguishable from a seek or advance.
func (c *IndexCursor) Dummy() error {
	_, err := step1(c.Hold())
	return err
}

// DummyBatch performs n dummy operations. The B-tree descents stay
// sequential (each is a dependent root-to-leaf walk), but the n trailing
// data accesses are coalesced when the data ORAM supports it.
func (c *IndexCursor) DummyBatch(n int) error {
	for i := 0; i < n; i++ {
		if err := c.tree.DummyOp(); err != nil {
			return err
		}
	}
	return c.t.DummyDataBatch(n)
}

// Disable marks the cursor's table entry with the given ordinal disabled and
// performs the uniform dummy data access that keeps a disable step
// indistinguishable from a retrieval (Section 6: "a tuple disabling
// operation, which is indistinguishable from a tuple retrieval").
func (c *IndexCursor) Disable(ord int64) error {
	if err := c.tree.Disable(ord); err != nil {
		return err
	}
	return c.t.DummyData()
}
