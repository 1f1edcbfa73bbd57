// Package table binds the relational layer to the oblivious storage layer:
// a StoredTable packs a relation's tuples into fixed-size encrypted data
// blocks inside an ORAM and integrates B-tree indices over chosen attributes
// (ORAM+B-tree, Section 4.2 of the paper).
//
// Three storage settings are supported, matching the paper's evaluation:
//
//   - SepORAM: one Path-ORAM for data blocks and one per index (the default,
//     "Segmenting ORAM" in Section 4.2);
//   - OneORAM: all tables' data and index blocks in a single Path-ORAM
//     (Section 7), built with StoreShared;
//   - Raw: plaintext blocks with direct addressing — the insecure
//     "Raw Index" baseline.
package table

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

// DefaultBlockPayload is the usable bytes per block, matching the paper's
// B = 4 KB encrypted blocks.
const DefaultBlockPayload = 4096

// Options configures table storage.
type Options struct {
	// BlockPayload is the usable bytes per ORAM block; 0 means
	// DefaultBlockPayload.
	BlockPayload int
	// Meter receives all traffic accounting; may be nil.
	Meter *storage.Meter
	// Sealer encrypts blocks; required unless Raw or Keyring is set.
	Sealer *xcrypto.Sealer
	// Keyring, when non-nil, supplies per-store sealers instead of Sealer:
	// every ORAM store ("T.data", "T.idx.attr", "shared") gets an
	// independent HKDF-derived subkey, and an epoch rotation on the ring
	// migrates all of them lazily. Takes precedence over Sealer.
	Keyring *xcrypto.Keyring
	// Rand supplies ORAM randomness; nil means crypto/rand.
	Rand oram.LeafSource
	// CacheIndex enables the paper's "+Cache" mode: all index levels above
	// the leaves are kept client-side (Δ = 1).
	CacheIndex bool
	// WriteBackDescents builds indexes that admit the multiway join's
	// disable operations (btree.Config.WriteBackDescents), at no extra
	// accesses. Their ORAM must be a Path-ORAM: Raw is refused.
	WriteBackDescents bool
	// Raw disables encryption and ORAM — the insecure baseline.
	Raw bool
	// OpenStore provisions the Path-ORAM bucket stores; nil means in-process
	// MemStores. A remote deployment passes a transport-backed opener (e.g.
	// remote.Client.Opener) so every table lives on a networked block server.
	OpenStore storage.Opener
	// StorePrefix is prepended to every store name the table provisions
	// ("<prefix><table>.data", "<prefix><table>.idx.<attr>"). The query
	// layer's plan cache stores filtered-and-indexed intermediates under
	// the reserved session.PlanCachePrefix namespace this way, so cached
	// inputs never collide with base tables and tenant qualification can
	// route them into an isolated per-tenant subtree.
	StorePrefix string
	// EvictionBatch is how many fetched paths a Path-ORAM write-back unions
	// before it rides the next download (<= 1: the one path just fetched).
	// See oram.PathConfig.EvictionBatch.
	EvictionBatch int
	// Flight carries the distributed-trace context down to the Path-ORAM
	// schedulers so the rounds that only write back (settle) annotate their
	// wire requests with the "oram.flush" phase; may be nil. See
	// oram.PathConfig.Flight.
	Flight *telemetry.Flight
}

func (o Options) payload() int {
	if o.BlockPayload == 0 {
		return DefaultBlockPayload
	}
	return o.BlockPayload
}

// StoredTable is a relation stored in oblivious (or raw) cloud blocks with
// B-tree indices over selected attributes. The client keeps no copy of the
// tuples: they are read back from the cloud (ReadTuple, cursors, Scan).
type StoredTable struct {
	schema   relation.Schema
	n        int // tuples stored
	domains  []Domain
	opts     Options
	data     oram.ORAM
	perBlock int
	indexes  map[string]*btree.Tree
}

// Domain is the least and greatest value a column held when it was stored:
// client-side metadata, recorded by Store so that a key-domain check needs
// no tuple. An empty table's domain is {0, 0}.
type Domain struct{ Min, Max int64 }

// Store uploads rel with its own ORAMs (SepORAM setting, or Raw when
// opts.Raw): one for data blocks and one per indexed attribute.
func Store(rel *relation.Relation, indexAttrs []string, opts Options) (*StoredTable, error) {
	t, built, err := prepare(rel, indexAttrs, opts)
	if err != nil {
		return nil, err
	}
	// Data ORAM.
	dataBlocks := t.dataBlockCount()
	dataORAM, err := newStore(DataStoreName(opts.StorePrefix, rel.Schema.Table), dataBlocks, opts)
	if err != nil {
		return nil, err
	}
	if err := bulkLoad(dataORAM, t.dataPayloads(rel)); err != nil {
		return nil, err
	}
	t.data = dataORAM
	// One ORAM per index.
	for _, attr := range indexAttrs {
		b := built[attr]
		idxORAM, err := newStore(IndexStoreName(opts.StorePrefix, rel.Schema.Table, attr), b.NumNodes(), opts)
		if err != nil {
			return nil, err
		}
		payloads, err := b.Payloads()
		if err != nil {
			return nil, err
		}
		if err := bulkLoad(idxORAM, payloads); err != nil {
			return nil, err
		}
		tree, err := btree.New(btree.Config{
			ORAM:              idxORAM,
			CacheInternal:     opts.CacheIndex,
			WriteBackDescents: opts.WriteBackDescents,
		}, b)
		if err != nil {
			return nil, err
		}
		t.indexes[attr] = tree
	}
	return t, nil
}

// StoreShared uploads several relations into one shared Path-ORAM — the
// OneORAM setting of Section 7. indexAttrs maps table name to the attributes
// to index. The returned map is keyed by table name.
func StoreShared(rels []*relation.Relation, indexAttrs map[string][]string, opts Options) (map[string]*StoredTable, *oram.PathORAM, error) {
	if opts.Raw {
		return nil, nil, fmt.Errorf("table: OneORAM setting is incompatible with Raw")
	}
	type piece struct {
		t     *StoredTable
		built map[string]*btree.Built
		attrs []string
	}
	pieces := make([]piece, 0, len(rels))
	var allPayloads [][]byte
	type span struct{ offset, count int64 }
	dataSpans := make([]span, len(rels))
	idxSpans := make([]map[string]span, len(rels))

	for i, rel := range rels {
		attrs := indexAttrs[rel.Schema.Table]
		t, built, err := prepare(rel, attrs, opts)
		if err != nil {
			return nil, nil, err
		}
		dataSpans[i] = span{offset: int64(len(allPayloads)), count: t.dataBlockCount()}
		allPayloads = append(allPayloads, t.dataPayloads(rel)...)
		idxSpans[i] = make(map[string]span, len(attrs))
		for _, attr := range attrs {
			b := built[attr]
			payloads, err := b.Payloads()
			if err != nil {
				return nil, nil, err
			}
			idxSpans[i][attr] = span{offset: int64(len(allPayloads)), count: b.NumNodes()}
			allPayloads = append(allPayloads, payloads...)
		}
		pieces = append(pieces, piece{t: t, built: built, attrs: attrs})
	}

	cfg, err := pathConfig(opts.StorePrefix+"shared", int64(len(allPayloads)), opts)
	if err != nil {
		return nil, nil, err
	}
	shared, err := oram.NewPathORAM(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := shared.BulkLoad(allPayloads); err != nil {
		return nil, nil, err
	}

	out := make(map[string]*StoredTable, len(rels))
	for i, p := range pieces {
		dv, err := oram.NewView(shared, uint64(dataSpans[i].offset), dataSpans[i].count)
		if err != nil {
			return nil, nil, err
		}
		p.t.data = dv
		for _, attr := range p.attrs {
			s := idxSpans[i][attr]
			iv, err := oram.NewView(shared, uint64(s.offset), s.count)
			if err != nil {
				return nil, nil, err
			}
			tree, err := btree.New(btree.Config{
				ORAM:              iv,
				CacheInternal:     opts.CacheIndex,
				WriteBackDescents: opts.WriteBackDescents,
			}, p.built[attr])
			if err != nil {
				return nil, nil, err
			}
			p.t.indexes[attr] = tree
		}
		out[rels[i].Schema.Table] = p.t
	}
	return out, shared, nil
}

// prepare validates the relation, computes geometry, records the column
// domains, and constructs index node sets (client-side; nothing uploaded
// yet). The table keeps its own copy of the schema and none of the tuples,
// so nothing the caller does to rel afterwards reaches it.
func prepare(rel *relation.Relation, indexAttrs []string, opts Options) (*StoredTable, map[string]*btree.Built, error) {
	if rel == nil {
		return nil, nil, fmt.Errorf("table: nil relation")
	}
	if !opts.Raw && opts.Sealer == nil && opts.Keyring == nil {
		return nil, nil, fmt.Errorf("table: sealer or keyring required unless Raw")
	}
	payload := opts.payload()
	ts := rel.Schema.TupleSize()
	perBlock := payload / ts
	if perBlock < 1 {
		return nil, nil, fmt.Errorf("table: tuple size %d exceeds block payload %d", ts, payload)
	}
	if perBlock > 0xFFFF {
		perBlock = 0xFFFF // Ref.Slot is serialized as uint16
	}
	schema := rel.Schema
	schema.Columns = slices.Clone(schema.Columns)
	t := &StoredTable{
		schema:   schema,
		n:        len(rel.Tuples),
		domains:  make([]Domain, len(schema.Columns)),
		opts:     opts,
		perBlock: perBlock,
		indexes:  make(map[string]*btree.Tree, len(indexAttrs)),
	}
	for i, tu := range rel.Tuples {
		if len(tu.Values) != len(schema.Columns) || len(tu.Payload) > schema.PayloadBytes {
			return nil, nil, fmt.Errorf("table: %s tuple %d has %d values and %d payload bytes, the schema %d and at most %d",
				schema.Table, i, len(tu.Values), len(tu.Payload), len(schema.Columns), schema.PayloadBytes)
		}
		for c := range t.domains {
			d, v := &t.domains[c], tu.Values[c]
			if i == 0 {
				*d = Domain{v, v}
			}
			d.Min, d.Max = min(d.Min, v), max(d.Max, v)
		}
	}
	built := make(map[string]*btree.Built, len(indexAttrs))
	for _, attr := range indexAttrs {
		col := rel.Schema.Col(attr)
		if col < 0 {
			return nil, nil, fmt.Errorf("table: %s has no column %q", rel.Schema.Table, attr)
		}
		items := make([]btree.Item, len(rel.Tuples))
		for i, tu := range rel.Tuples {
			items[i] = btree.Item{
				Key: tu.Values[col],
				Ref: btree.Ref{Block: uint64(i / perBlock), Slot: i % perBlock},
			}
		}
		b, err := btree.Construct(payload, items)
		if err != nil {
			return nil, nil, err
		}
		built[attr] = b
	}
	return t, built, nil
}

func (t *StoredTable) dataBlockCount() int64 {
	n := (t.n + t.perBlock - 1) / t.perBlock
	if n == 0 {
		n = 1
	}
	return int64(n)
}

// dataPayloads encodes rel's tuples into data-block payloads.
func (t *StoredTable) dataPayloads(rel *relation.Relation) [][]byte {
	payload := t.opts.payload()
	ts := t.schema.TupleSize()
	blocks := make([][]byte, t.dataBlockCount())
	for b := range blocks {
		buf := make([]byte, payload)
		for s := 0; s < t.perBlock; s++ {
			i := b*t.perBlock + s
			if i >= t.n {
				break
			}
			// Encoding errors are impossible here: prepare validated widths.
			if err := relation.Encode(t.schema, rel.Tuples[i], buf[s*ts:]); err != nil {
				panic(fmt.Sprintf("table: encoding tuple %d of %s: %v", i, t.schema.Table, err))
			}
		}
		blocks[b] = buf
	}
	return blocks
}

func newStore(name string, capacity int64, opts Options) (oram.ORAM, error) {
	if opts.Raw {
		return oram.NewRawStore(name, capacity, opts.payload(), opts.Meter, opts.Rand)
	}
	cfg, err := pathConfig(name, capacity, opts)
	if err != nil {
		return nil, err
	}
	return oram.NewPathORAM(cfg)
}

// pathConfig is the Path-ORAM configuration of a store the table
// provisions: sealed under the keyring's sealer for its name when there is
// a keyring, under opts.Sealer otherwise.
func pathConfig(name string, capacity int64, opts Options) (oram.PathConfig, error) {
	sealer := opts.Sealer
	if opts.Keyring != nil {
		var err error
		if sealer, err = opts.Keyring.Sealer(name); err != nil {
			return oram.PathConfig{}, fmt.Errorf("table: deriving sealer for store %q: %w", name, err)
		}
	}
	return oram.PathConfig{
		Name:          name,
		Capacity:      capacity,
		PayloadSize:   opts.payload(),
		Meter:         opts.Meter,
		Sealer:        sealer,
		Rand:          opts.Rand,
		OpenStore:     opts.OpenStore,
		EvictionBatch: opts.EvictionBatch,
		Flight:        opts.Flight,
	}, nil
}

func bulkLoad(o oram.ORAM, payloads [][]byte) error {
	type bulkLoader interface{ BulkLoad([][]byte) error }
	bl, ok := o.(bulkLoader)
	if !ok {
		return fmt.Errorf("table: ORAM %T does not support bulk load", o)
	}
	return bl.BulkLoad(payloads)
}

// Schema returns the stored relation's schema.
func (t *StoredTable) Schema() relation.Schema { return t.schema }

// NumTuples returns the row count (public sizing information).
func (t *StoredTable) NumTuples() int { return t.n }

// Domain returns the domain column attr held when the table was stored.
func (t *StoredTable) Domain(attr string) (Domain, error) {
	col := t.schema.Col(attr)
	if col < 0 {
		return Domain{}, fmt.Errorf("table: %s has no column %q", t.schema.Table, attr)
	}
	return t.domains[col], nil
}

// TuplesPerBlock returns the data-block packing factor.
func (t *StoredTable) TuplesPerBlock() int { return t.perBlock }

// Index returns the B-tree over attr, or an error if not built.
func (t *StoredTable) Index(attr string) (*btree.Tree, error) {
	tr, ok := t.indexes[attr]
	if !ok {
		return nil, fmt.Errorf("table: %s has no index on %q", t.schema.Table, attr)
	}
	return tr, nil
}

// ReadTuple fetches the tuple at ref with exactly one data-ORAM access.
func (t *StoredTable) ReadTuple(ref btree.Ref) (relation.Tuple, bool, error) {
	buf, err := t.data.Read(ref.Block)
	if err != nil {
		return relation.Tuple{}, false, err
	}
	return t.tupleAt(ref, buf)
}

// tupleReq is ReadTuple's access, not yet performed, and dummyReq the one
// indistinguishable from it; tupleAt decodes what tupleReq fetched.
func (t *StoredTable) tupleReq(ref btree.Ref) oram.Req {
	return oram.Req{ORAM: t.data, Key: ref.Block}
}

func (t *StoredTable) dummyReq() oram.Req { return oram.Req{ORAM: t.data, Dummy: true} }

// errNoIndex is what asking a cursor without an index stage for one gets.
var errNoIndex = errors.New("table: the cursor has no index stage")

// landTuple fills in the tuple of a row whose entry the index stage found,
// from the data access dataReq built for it.
func (t *StoredTable) landTuple(row Row, loaded oram.Req) (Row, error) {
	if loaded.Err != nil || loaded.Dummy {
		return row, loaded.Err
	}
	tu, ok, err := t.tupleAt(row.Entry.Ref, loaded.Data)
	if err != nil {
		return row, err
	}
	if !ok {
		return row, fmt.Errorf("table: entry ord %d points at dummy slot", row.Entry.Ord)
	}
	row.Tuple = tu
	return row, nil
}

func (t *StoredTable) tupleAt(ref btree.Ref, buf []byte) (relation.Tuple, bool, error) {
	ts := t.schema.TupleSize()
	off := ref.Slot * ts
	if off+ts > len(buf) {
		return relation.Tuple{}, false, fmt.Errorf("table: slot %d out of block", ref.Slot)
	}
	return relation.Decode(t.schema, buf[off:off+ts])
}

// DummyData performs one data-ORAM access indistinguishable from ReadTuple.
func (t *StoredTable) DummyData() error { return t.data.DummyAccess() }

// ORAMs lists the table's ORAMs in canonical order: the data ORAM, then the
// index ORAMs by attribute name. It is the order in which a query's settle
// round carries their last write-backs (oram.Settle) — public, like the
// index inventory itself.
func (t *StoredTable) ORAMs() []oram.ORAM {
	out := make([]oram.ORAM, 0, 1+len(t.indexes))
	out = append(out, t.data)
	for _, tr := range t.Indexes() {
		out = append(out, tr.ORAM())
	}
	return out
}

// Indexes lists the table's indexes in canonical order, by attribute name:
// the order in which the multiway join's reset pass (btree.Reset) carries
// their nodes, which is server-visible.
func (t *StoredTable) Indexes() []*btree.Tree {
	out := make([]*btree.Tree, 0, len(t.indexes))
	for _, attr := range t.IndexAttrs() {
		out = append(out, t.indexes[attr])
	}
	return out
}

// PathTelemetry returns the Path-ORAM scheduler/stash statistics for each
// of the table's ORAMs that exposes them (data first, then indexes).
func (t *StoredTable) PathTelemetry() []oram.PathStats {
	type pathTelemeter interface{ Telemetry() oram.PathStats }
	var out []oram.PathStats
	if p, ok := t.data.(pathTelemeter); ok {
		out = append(out, p.Telemetry())
	}
	for _, o := range t.ORAMs()[1:] {
		if p, ok := o.(pathTelemeter); ok {
			out = append(out, p.Telemetry())
		}
	}
	return out
}

// CloudBytes returns the server-side footprint of the table's data and
// index storage. In the OneORAM setting views report pro-rated shares.
func (t *StoredTable) CloudBytes() int64 {
	total := t.data.ServerBytes()
	for _, tr := range t.indexes {
		total += treeServerBytes(tr)
	}
	return total
}

// ClientBytes returns the client-side footprint: ORAM metadata (stash +
// position maps) plus cached index levels.
func (t *StoredTable) ClientBytes() int64 {
	total := t.data.ClientBytes()
	for _, tr := range t.indexes {
		total += tr.ClientCacheBytes() + treeClientBytes(tr)
	}
	return total
}

// Scan reads the table back from its data ORAM in one oblivious scan
// (oram.PathORAM.Scan) and returns its tuples in key order, which is the
// order they were stored in. The server sees every stored bucket of the
// data tree read once, in rounds its geometry fixes; the tuples' values
// reach only the client.
func (t *StoredTable) Scan() ([]relation.Tuple, error) {
	o, ok := t.data.(*oram.PathORAM)
	if !ok {
		return nil, fmt.Errorf("table: %s: a %T cannot be scanned", t.schema.Table, t.data)
	}
	blocks, err := o.Scan()
	if err != nil {
		return nil, err
	}
	tuples := make([]relation.Tuple, t.n)
	for i := range tuples {
		ref := btree.Ref{Block: uint64(i / t.perBlock), Slot: i % t.perBlock}
		tu, real, err := t.tupleAt(ref, blocks[ref.Block])
		if err == nil && !real {
			err = errors.New("a dummy slot")
		}
		if err != nil {
			return nil, fmt.Errorf("table: scanning tuple %d of %s: %w", i, t.schema.Table, err)
		}
		tuples[i] = tu
	}
	return tuples, nil
}

// DataStoreName is the store name Store provisions for a table's data ORAM.
// The planner's catalog reconstructs it to attribute predicted block
// accesses per store.
func DataStoreName(prefix, tbl string) string { return prefix + tbl + ".data" }

// IndexStoreName is the store name Store provisions for one index ORAM.
func IndexStoreName(prefix, tbl, attr string) string { return prefix + tbl + ".idx." + attr }

// DataAccessesPerOp reports the fixed number of server block operations one
// data-ORAM access moves (for Path-ORAM 2·Levels(): the path's levels below
// the treetop, down and up). Public metadata: a constant of the instance
// geometry, independent of the data.
func (t *StoredTable) DataAccessesPerOp() int { return t.data.AccessesPerOp() }

// DataBlockBytes reports the size of one of those block operations, the
// data store's sealed block. Public metadata like DataAccessesPerOp.
func (t *StoredTable) DataBlockBytes() int { return t.data.BlockBytes() }

// IndexAttrs lists the attributes with a built index, sorted — the public
// index inventory the planner enumerates candidates over.
func (t *StoredTable) IndexAttrs() []string {
	attrs := make([]string, 0, len(t.indexes))
	for a := range t.indexes {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	return attrs
}

// StorePrefix reports the store-name prefix the table was provisioned under
// (empty for base tables, a plan-cache prefix for cached intermediates).
func (t *StoredTable) StorePrefix() string { return t.opts.StorePrefix }

// treeServerBytes and treeClientBytes reach through to the tree's ORAM.
func treeServerBytes(tr *btree.Tree) int64 { return tr.ORAM().ServerBytes() }
func treeClientBytes(tr *btree.Tree) int64 { return tr.ORAM().ClientBytes() }
