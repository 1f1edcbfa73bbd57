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
//
// In a pipeline that looks ahead (Pipeline) the cursor holds its next
// tuple: a retrieval that advances takes the held tuple, and its access
// fetches the one after it; the first tuple is fetched by an access of its
// own, before the first retrieval's.
type ScanCursor struct {
	t     *StoredTable
	pos   int
	ahead bool
	next  Row // ahead: tuple pos, once fetched
}

// NewScanCursor returns a cursor at the first tuple.
func NewScanCursor(t *StoredTable) *ScanCursor { return &ScanCursor{t: t} }

// Advance is the retrieval of the next tuple (a dummy once past the end).
func (c *ScanCursor) Advance() Move { return Move{c: c, kind: advance} }

// Hold is a retrieval indistinguishable from Advance that leaves the cursor
// where it is.
func (c *ScanCursor) Hold() Move { return Move{c: c} }

func (c *ScanCursor) ref() btree.Ref {
	return btree.Ref{Block: uint64(c.pos / c.t.perBlock), Slot: c.pos % c.t.perBlock}
}

func (c *ScanCursor) shape() shape { return shape{data: c.t.data, dataLocal: oram.Local(c.t.data)} }

func (c *ScanCursor) open(ahead bool) int8 {
	c.ahead = ahead
	return 0
}

func (c *ScanCursor) begin(Move, int8) error { return nil }

func (c *ScanCursor) indexReq(Move, int8, int) (oram.Req, error) { return oram.Req{}, errNoIndex }

func (c *ScanCursor) landIndex(Move, int8, oram.Req) (Row, bool, error) {
	return Row{}, false, errNoIndex
}

// dataReq is the retrieval's access: of the tuple at the cursor, or ahead
// of the one after the tuple the retrieval took (take), real exactly when it
// took one.
func (c *ScanCursor) dataReq(mv Move, row Row) oram.Req {
	if c.ahead {
		return c.fetchReq(row.OK)
	}
	return c.fetchReq(mv.kind != hold)
}

// fetchReq is the access of the tuple at the cursor when real, and a dummy
// when not or past the end.
func (c *ScanCursor) fetchReq(real bool) oram.Req {
	if !real || c.pos >= c.t.NumTuples() {
		return c.t.dummyReq()
	}
	return c.t.tupleReq(c.ref())
}

func (c *ScanCursor) landData(_ Move, row Row, loaded oram.Req) (Row, error) {
	if c.ahead {
		return row, c.landFetch(loaded)
	}
	if err := c.landFetch(loaded); err != nil || loaded.Dummy {
		return Row{}, err
	}
	c.pos++
	return c.next, nil
}

// landFetch decodes the tuple a fetchReq brought into next.
func (c *ScanCursor) landFetch(loaded oram.Req) error {
	if loaded.Err != nil || loaded.Dummy {
		return loaded.Err
	}
	tu, ok, err := c.t.tupleAt(c.ref(), loaded.Data)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("table: scan hit dummy slot at %d", c.pos)
	}
	c.next = Row{Tuple: tu, OK: true}
	return nil
}

// take is an ahead retrieval's row: the held tuple, which an advance takes,
// moving the cursor on; nothing for a hold or past the end.
func (c *ScanCursor) take(mv Move) Row {
	if mv.kind == hold || c.pos >= c.t.NumTuples() {
		return Row{}
	}
	c.pos++
	return c.next
}

// Pos returns the number of tuples consumed.
func (c *ScanCursor) Pos() int { return c.pos }

// LeafCursor iterates a table in index (attribute) order by walking the
// B-tree leaf level — the sort-merge join's retrieval primitive: each
// retrieval is one index-ORAM access (the leaf) plus one data-ORAM access,
// real or dummy, so all retrievals are indistinguishable.
type LeafCursor struct {
	t    *StoredTable
	tree *btree.Tree
	pos  int64 // ordinal of the next entry to retrieve
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

func (c *LeafCursor) shape() shape {
	return shape{
		index: c.tree.ORAM(), data: c.t.data, n: 1, free: 1,
		indexLocal: oram.Local(c.tree.ORAM()), dataLocal: oram.Local(c.t.data),
	}
}

func (c *LeafCursor) open(bool) int8 { return 0 }

func (c *LeafCursor) begin(Move, int8) error { return nil }

// indexReq is the leaf access: the leaf holding the entry at the cursor, or
// a dummy past the end.
func (c *LeafCursor) indexReq(mv Move, _ int8, _ int) (oram.Req, error) {
	if mv.kind == hold || c.pos >= c.tree.NumEntries() {
		return c.tree.DummyReq(), nil
	}
	return c.tree.LeafReq(c.tree.LeafFor(c.pos))
}

// landIndex picks the cursor's entry out of the fetched leaf and moves the
// cursor on.
func (c *LeafCursor) landIndex(_ Move, _ int8, located oram.Req) (Row, bool, error) {
	if located.Err != nil || located.Dummy {
		return Row{}, true, located.Err
	}
	ent, err := btree.LeafEntry(located.Data, int(c.pos)%c.tree.LeafFanoutEntries())
	if err != nil {
		return Row{}, true, err
	}
	c.pos++
	return Row{Entry: ent, OK: true}, true, nil
}

func (c *LeafCursor) dataReq(_ Move, row Row) oram.Req {
	if !row.OK {
		return c.t.dummyReq()
	}
	return c.t.tupleReq(row.Entry.Ref)
}

func (c *LeafCursor) landData(_ Move, row Row, loaded oram.Req) (Row, error) {
	return c.t.landTuple(row, loaded)
}

// Pos returns the ordinal of the next entry.
func (c *LeafCursor) Pos() int64 { return c.pos }

// SeekOrd repositions the cursor (client-side bookkeeping only; Algorithm 1's
// "tuple[2] := begin" restores a saved position without a retrieval).
func (c *LeafCursor) SeekOrd(ord int64) { c.pos = ord }

// IndexCursor retrieves tuples through full B-tree descents — the inner
// table role of the index nested-loop joins. Every operation (seek, advance,
// or dummy) performs exactly tree.AccessesPerRetrieval() index-ORAM accesses
// plus one data-ORAM access — or none over a TreeTable, whose leaf entries
// hold the tuples.
type IndexCursor struct {
	t      *StoredTable // nil over a TreeTable
	tree   *btree.Tree
	schema relation.Schema // TreeTable: the tuples' schema
	cur    btree.Entry
	ok     bool
	// desc are the cursor's descents: it has at most two descents in
	// flight, a step's and its successor's, read ahead; the retrieval of
	// the step before, still landing its data, has finished its descent.
	desc [2]btree.Descent
	flip int8
	// lookup: the cursor never disables, so its descents pin nothing
	// (btree Descent.OpenLookup).
	lookup bool
}

// NewIndexCursor returns a cursor over the index on attr.
func NewIndexCursor(t *StoredTable, attr string) (*IndexCursor, error) {
	tree, err := t.Index(attr)
	if err != nil {
		return nil, err
	}
	return &IndexCursor{t: t, tree: tree}, nil
}

// NewLookupCursor returns a cursor over the index on attr that only looks
// up — seeks, advances and holds, never a disable — so its descents pin no
// node even on a write-back index, and a root read ahead for its next
// retrieval may share the index's round with the retrieval before it
// (Pipeline). The index nested-loop and band joins probe through one.
func NewLookupCursor(t *StoredTable, attr string) (*IndexCursor, error) {
	c, err := NewIndexCursor(t, attr)
	if err == nil {
		c.lookup = true
	}
	return c, err
}

// Tree exposes the underlying index (for disable operations).
func (c *IndexCursor) Tree() *btree.Tree { return c.tree }

func (c *IndexCursor) shape() shape {
	sh := shape{
		index: c.tree.ORAM(),
		n:     c.tree.AccessesPerRetrieval(), free: c.tree.KeyFree(),
		pins:       c.tree.WriteBackDescents() && !c.lookup,
		indexLocal: oram.Local(c.tree.ORAM()),
	}
	if c.t != nil {
		sh.data, sh.dataLocal = c.t.data, oram.Local(c.t.data)
	}
	return sh
}

// open opens the retrieval's descent on the cursor's next descent slot;
// ahead, its key-free access reads the root whatever the move.
func (c *IndexCursor) open(ahead bool) int8 {
	slot := c.flip
	c.flip ^= 1
	if c.lookup {
		c.desc[slot].OpenLookup(c.tree, ahead)
	} else {
		c.desc[slot].Open(c.tree, ahead)
	}
	return slot
}

// begin gives the descent opened on slot its move.
func (c *IndexCursor) begin(mv Move, slot int8) error {
	d := &c.desc[slot]
	mode, target := btree.Dummy, mv.arg
	switch mv.kind {
	case seekKeyGE:
		mode = btree.KeyGE
	case seekOrdGE:
		mode = btree.OrdGE
	case seekOrdLE:
		mode = btree.OrdLE
	case disable:
		mode = btree.DisableOrd
	case advance, retreat:
		if !c.ok {
			return fmt.Errorf("table: Next or Prev on unpositioned cursor")
		}
		mode, target = btree.OrdGE, c.cur.Ord+1
		if mv.kind == retreat {
			mode, target = btree.OrdLE, c.cur.Ord-1
		}
	}
	if err := d.Begin(mode); err != nil {
		return err
	}
	if mv.kind != seekKeyGE || mv.src == nil { // a deferred key comes with the first keyed access
		d.Target(target, true)
	}
	return nil
}

// indexReq builds access k of the descent; the first keyed one takes a
// deferred key from its source row (a row without a tuple: a miss).
func (c *IndexCursor) indexReq(mv Move, slot int8, k int) (oram.Req, error) {
	d := &c.desc[slot]
	if mv.src != nil && k == c.tree.KeyFree() {
		var key int64
		switch {
		case !mv.src.OK:
		case mv.col == EntryKey:
			key = mv.src.Entry.Key
		default:
			key = mv.src.Tuple.Values[mv.col]
		}
		d.Target(key, mv.src.OK)
	}
	return d.Req()
}

// landIndex lands a descent access; once the leaf is in, the cursor rests on
// the entry found (a disable leaves it where it was), and over a TreeTable
// the row has its tuple.
func (c *IndexCursor) landIndex(mv Move, slot int8, req oram.Req) (Row, bool, error) {
	d := &c.desc[slot]
	if err := d.Land(req); err != nil {
		return Row{}, false, err
	}
	if !d.Done() || mv.kind == hold || mv.kind == disable {
		return Row{}, d.Done(), nil
	}
	c.cur, c.ok = d.Result()
	row := Row{Entry: c.cur, OK: c.ok}
	if c.t == nil && c.ok {
		tu, ok, err := relation.Decode(c.schema, c.cur.Value)
		if err != nil || !ok {
			return row, true, fmt.Errorf("table: tree entry ord %d holds no tuple (%v)", c.cur.Ord, err)
		}
		row.Tuple = tu
	}
	return row, true, nil
}

func (c *IndexCursor) dataReq(_ Move, row Row) oram.Req {
	if !row.OK {
		return c.t.dummyReq()
	}
	return c.t.tupleReq(row.Entry.Ref)
}

func (c *IndexCursor) landData(_ Move, row Row, loaded oram.Req) (Row, error) {
	return c.t.landTuple(row, loaded)
}

// EntryKey is the column MoveKeyGE reads for the key of the source row's
// index entry (Row.Entry.Key) rather than a tuple column.
const EntryKey = -1

// MoveKeyGE is the retrieval of the first live entry with key >= column col
// of *src, or with col EntryKey >= the key of src's entry, read when the
// descent first needs it; a src without a tuple (OK=false) makes it a miss
// with the same accesses. The step's pipeline must have the cursor's keyed
// accesses wait for the retrieval landing in *src — for its entry, with
// EntryKey (Wait) — or src must already be complete.
func (c *IndexCursor) MoveKeyGE(src *Row, col int) Move {
	return Move{c: c, kind: seekKeyGE, src: src, col: col}
}

// MoveDisable marks the cursor's table entry with the given ordinal
// disabled and performs the uniform dummy data access that keeps a disable
// step indistinguishable from a retrieval (Section 6: "a tuple disabling
// operation, which is indistinguishable from a tuple retrieval").
func (c *IndexCursor) MoveDisable(ord int64) Move { return Move{c: c, kind: disable, arg: ord} }

// MoveOrdGE is the retrieval of the first live entry with ordinal >= o
// (band joins start ascending passes at ordinal 0).
func (c *IndexCursor) MoveOrdGE(o int64) Move { return Move{c: c, kind: seekOrdGE, arg: o} }

// MoveOrdLE is the retrieval of the last live entry with ordinal <= o (band
// joins start descending passes at the last entry).
func (c *IndexCursor) MoveOrdLE(o int64) Move { return Move{c: c, kind: seekOrdLE, arg: o} }

// MoveNext is the retrieval of the next live entry in ordinal order.
func (c *IndexCursor) MoveNext() Move { return Move{c: c, kind: advance} }

// MovePrev is the retrieval of the previous live entry in ordinal order.
func (c *IndexCursor) MovePrev() Move { return Move{c: c, kind: retreat} }

// Hold is a retrieval indistinguishable from a seek or advance that leaves
// the cursor where it is.
func (c *IndexCursor) Hold() Move { return Move{c: c} }
