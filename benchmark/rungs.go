package main

import (
	"fmt"
	"runtime"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

// timing is one micro-timed rung: a layer's public function called in a
// loop at the workload's geometry.
type timing struct {
	perOp  time.Duration
	allocs float64 // heap allocations per call
}

func (t timing) ns() float64 { return float64(t.perOp) }

// measure calls fn n times after one untimed call and returns the mean
// time and allocations per call. A failing call panics with a rungError.
func measure(n int, fn func() error) timing {
	check := func(err error) {
		if err != nil {
			panic(rungError{err})
		}
	}
	check(fn())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		check(fn())
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return timing{perOp: elapsed / time.Duration(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// tryMeasure is measure for a single rung outside measureRungs.
func tryMeasure(n int, fn func() error) (t timing, err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(rungError)
			if !ok {
				panic(r)
			}
			err = re.err
		}
	}()
	return measure(n, fn), nil
}

// rungError carries a failed rung call out of measure; measureRungs turns
// it back into an error.
type rungError struct{ err error }

// rungs holds every micro-timing of one workload.
type rungs struct {
	levels int // path length of the customer data ORAM, the rung geometry

	seal, open         timing // one bucket
	memRead, memWrite  timing // one path-sized batch on a MemStore
	access             timing // PathORAM.Read over a MemStore
	lookup             timing // Tree.LookupGE over a local PathORAM
	nodesPerLookup     float64
	indexAccess        timing // one access of that index ORAM
	store              timing // table.Store of customer
	storeBlocksWritten float64
	selectPadded       timing
	sortVector         timing // Sorter.SortVector of the join's output vector
	sortRecords        int
	compact            timing // Sorter.CompactReal of the same vector

	// Present with a server only.
	codec                      timing // AppendFramedRequest + DecodeRequest of one path batch
	rpcRead1, rpcReadPath      timing // RemoteStore.ReadMany of 1 block / one path
	rpcWrite1, rpcWritePath    timing
	hasRemote, hasPlannerRungs bool
}

// measureRungs micro-times each layer at the geometry of in's workload.
func measureRungs(in *inputs, scratch string) (rg *rungs, err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(rungError)
			if !ok {
				panic(r)
			}
			rg, err = nil, re.err
		}
	}()
	w := in.w
	rg = &rungs{}
	keyring, err := xcrypto.NewKeyring(in.key, 0, nil)
	if err != nil {
		return nil, err
	}
	defer keyring.Close()
	sealer, err := keyring.Sealer("rung")
	if err != nil {
		return nil, err
	}
	customer := in.rel("customer")
	payload := w.cfg.BlockPayload

	// oram: a tree the size of the customer data ORAM over a MemStore.
	perBlock := payload / customer.Schema.TupleSize()
	capacity := int64((customer.Len() + perBlock - 1) / perBlock)
	var mem *storage.MemStore
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name: "rung.oram", Capacity: capacity, PayloadSize: payload, Sealer: sealer,
		OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
			mem = storage.NewMemStore(name, slots, blockSize, nil)
			return mem, nil
		},
	})
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, capacity)
	for i := range blocks {
		blocks[i] = make([]byte, payload)
	}
	if err := o.BulkLoad(blocks); err != nil {
		return nil, err
	}
	rg.levels = o.Levels()
	key := uint64(0)
	rg.access = measure(2000, func() error {
		key = (key + 1) % uint64(capacity)
		_, err := o.Read(key)
		return err
	})

	// storage and xcrypto: one path of that tree.
	path := make([]int64, rg.levels)
	for l := range path {
		path[l] = int64(1)<<l - 1 // the leftmost path, root to leaf
	}
	var batch [][]byte
	rg.memRead = measure(5000, func() error {
		var err error
		batch, err = mem.ReadMany(path)
		return err
	})
	rg.memWrite = measure(5000, func() error { return mem.WriteMany(path, batch) })
	sealed := batch[0]
	plain := make([]byte, len(sealed)-xcrypto.Overhead)
	dst := make([]byte, 0, len(sealed))
	rg.seal = measure(5000, func() error {
		_, err := sealer.SealTo(dst, plain)
		return err
	})
	ct, err := sealer.Seal(plain)
	if err != nil {
		return nil, err
	}
	rg.open = measure(5000, func() error {
		_, err := sealer.OpenTo(plain[:0], ct)
		return err
	})

	// table and btree: the customer relation stored and indexed as Seal
	// does, behind an opener that counts what the upload writes.
	var written int64
	topts := table.Options{
		BlockPayload: payload, Keyring: keyring, WriteBackDescents: w.cfg.EnableMultiway,
		OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
			return &countingStore{MemStore: storage.NewMemStore(name, slots, blockSize, nil), written: &written}, nil
		},
	}
	var st *table.StoredTable
	rg.store = measure(10, func() error {
		written = 0
		var err error
		st, err = table.Store(customer, []string{"c_nationkey"}, topts)
		return err
	})
	rg.storeBlocksWritten = float64(written)
	tree, err := st.Index("c_nationkey")
	if err != nil {
		return nil, err
	}
	idx, ok := tree.ORAM().(interface {
		oram.ORAM
		Telemetry() oram.PathStats
	})
	if !ok {
		return nil, fmt.Errorf("index ORAM %T exposes no telemetry", tree.ORAM())
	}
	const lookups = 1000
	before := idx.Telemetry().Accesses
	k := int64(0)
	rg.lookup = measure(lookups, func() error {
		k = (k + 7) % 25
		_, _, err := tree.LookupGE(k)
		return err
	})
	rg.nodesPerLookup = float64(idx.Telemetry().Accesses-before) / (lookups + 1)
	rg.indexAccess = measure(2000, idx.DummyAccess)

	// obliv: the output vector of one join — as many records as the join
	// has steps, half of them dummies — sorted and compacted.
	pad := core.Options{Padding: w.cfg.Padding}
	schema := relation.JoinedSchema("out", in.rel("supplier").Schema, customer.Schema)
	recSize := schema.TupleSize()
	outBlock := payload + xcrypto.Overhead
	exp := in.oracle.expected(request{class: w.cycle[0]})
	padded := int(pad.PadSize(int64(len(exp.rows)), exp.cartesian))
	rg.sortRecords = in.rel("supplier").Len() + customer.Len() + padded // the sort-merge join's step bound
	memRecs := 2 * ((outBlock - xcrypto.Overhead) / recSize)            // M = 2B, core's default
	fill := func() (*obliv.BlockVector, error) {
		v, err := obliv.NewBlockVector("rung.out", 64, recSize, outBlock, nil, sealer)
		if err != nil {
			return nil, err
		}
		rec := make([]byte, recSize)
		for i := 0; i < rg.sortRecords; i++ {
			if i%2 == 0 {
				err = relation.Encode(schema, relation.Tuple{Values: make([]int64, len(schema.Columns))}, rec)
			} else {
				err = relation.EncodeDummy(schema, rec)
			}
			if err == nil {
				err = v.Append(rec)
			}
			if err != nil {
				return nil, err
			}
		}
		return v, v.Flush()
	}
	dummy := make([]byte, recSize)
	if err := relation.EncodeDummy(schema, dummy); err != nil {
		return nil, err
	}
	// Filling the vector is the join's work, not the sort's: time it alone
	// and take it off.
	fillOnly := measure(5, func() error { _, err := fill(); return err })
	less := func(a, b []byte) bool { return !relation.IsDummy(a) && relation.IsDummy(b) }
	rg.sortVector = measure(5, func() error {
		v, err := fill()
		if err != nil {
			return err
		}
		shape, _ := obliv.ChunkShape(v.Len(), memRecs)
		if err := v.PadTo(shape, dummy); err != nil {
			return err
		}
		return obliv.Sorter{}.SortVector(v, memRecs, less)
	})
	rg.compact = measure(5, func() error {
		v, err := fill()
		if err != nil {
			return err
		}
		return obliv.Sorter{}.CompactReal(v, memRecs, relation.IsDummy, padded, dummy)
	})
	rg.sortVector.perOp -= fillOnly.perOp
	rg.compact.perOp -= fillOnly.perOp

	if w.cfg.EnableMultiway { // the db.Run workload
		rg.hasPlannerRungs = true
		preds := []operators.Pred{{Column: "c_acctbal", Op: operators.GE, Value: in.hot[0]}}
		padTo := func(real int) int { return int(pad.PadSize(int64(real), int64(customer.Len()))) }
		oopts := operators.Options{BlockSize: outBlock, Sealer: sealer}
		rg.selectPadded = measure(10, func() error {
			_, err := operators.SelectPadded(customer, preds, padTo, oopts)
			return err
		})
	}

	if w.backend != backendMem {
		rg.hasRemote = true
		if err := rg.remote(w, scratch, path, batch); err != nil {
			return nil, err
		}
	}
	return rg, nil
}

// remote times the wire: the codec on one path batch, and batch reads and
// writes of one block and of one path against the workload's own kind of
// server (so a disk-backed one pays its group-committed fsyncs).
func (rg *rungs) remote(w workload, scratch string, path []int64, batch [][]byte) error {
	req := &remote.Request{Op: remote.OpWriteMany, Store: "rung.store", Indices: path, Blocks: batch}
	var frame []byte
	rg.codec = measure(5000, func() error {
		frame = remote.AppendFramedRequest(frame[:0], req)
		_, err := remote.DecodeRequest(frame[4:]) // past the length prefix
		return err
	})
	srv, err := startServer(w, scratch, nil)
	if err != nil {
		return err
	}
	defer srv.close()
	c, err := remote.Dial(remote.ClientOptions{Addr: srv.addr})
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Create("rung.store", int64(1)<<len(path), len(batch[0]))
	if err != nil {
		return err
	}
	if err := st.WriteMany(path, batch); err != nil {
		return err
	}
	read := func(idxs []int64) func() error {
		return func() error { _, err := st.ReadMany(idxs); return err }
	}
	write := func(idxs []int64, data [][]byte) func() error {
		return func() error { return st.WriteMany(idxs, data) }
	}
	rg.rpcRead1 = measure(2000, read(path[:1]))
	rg.rpcReadPath = measure(2000, read(path))
	rg.rpcWrite1 = measure(2000, write(path[:1], batch[:1]))
	rg.rpcWritePath = measure(2000, write(path, batch))
	return nil
}

// countingStore counts the blocks written through it.
type countingStore struct {
	*storage.MemStore
	written *int64
}

func (c *countingStore) WriteMany(idxs []int64, data [][]byte) error {
	*c.written += int64(len(idxs))
	return c.MemStore.WriteMany(idxs, data)
}

func (c *countingStore) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	*c.written += int64(len(writeIdxs))
	return c.MemStore.Exchange(writeIdxs, writeData, readIdxs)
}

// report publishes the rung metrics.
func (rg *rungs) report(rep *report) {
	rep.set("xcrypto.seal_ns_per_block", rg.seal.ns())
	rep.set("xcrypto.open_ns_per_block", rg.open.ns())
	rep.set("xcrypto.allocs_per_block", rg.seal.allocs+rg.open.allocs)
	rep.set("storage.mem_readmany_us", us(rg.memRead.perOp))
	rep.set("storage.mem_allocs_per_batch", rg.memRead.allocs)
	rep.set("oram.access_us", us(rg.access.perOp))
	rep.set("oram.allocs_per_access", rg.access.allocs)
	rep.set("btree.lookup_us", us(rg.lookup.perOp))
	rep.set("btree.nodes_per_lookup", rg.nodesPerLookup)
	rep.set("table.store_ms", ms(rg.store.perOp))
	rep.set("obliv.sort_ns_per_record", rg.sortVector.ns()/float64(rg.sortRecords))
	rep.set("obliv.compact_ms", ms(rg.compact.perOp))
	if rg.hasPlannerRungs {
		rep.set("operators.select_padded_ms", ms(rg.selectPadded.perOp))
	}
	if rg.hasRemote {
		rep.set("remote.codec_roundtrip_us", us(rg.codec.perOp))
		rep.set("remote.codec_allocs", rg.codec.allocs)
		rep.set("remote.rpc_us", us(rg.rpcReadPath.perOp))
	}
}

// ladderCounts is how often the traced queries did each rung's operation.
type ladderCounts struct {
	queries       float64
	queryNS       float64     // measured mean wall of one traced query
	store         storeTotals // decorated client-side store calls of the pass
	indexAccesses float64     // accesses of the base tables' index ORAMs
	colds, runs   float64
}

// ladder builds the attribution table: each rung's cost per operation,
// made exclusive of the rungs below it, times the operations per query.
// The rows are summed against the measured query time; what they do not
// explain — the join loops, tuple encoding, the table cursors, and every
// error of the linear model — is the residual, and it is printed.
func (rep *report) ladder(w workload, rg *rungs, n ladderCounts) {
	q := n.queries
	L := float64(rg.levels)
	add := func(layer, rung string, nsPerOp, opsPerQuery float64) {
		if nsPerOp < 0 {
			nsPerOp = 0
		}
		row := ladderRow{Layer: layer, Rung: rung, NSPerOp: nsPerOp, Ops: opsPerQuery, MS: nsPerOp * opsPerQuery / 1e6}
		row.Share = nsPerOp * opsPerQuery / n.queryNS
		rep.Ladder = append(rep.Ladder, row)
	}
	blocksRead, blocksWritten := float64(n.store.BlocksRead)/q, float64(n.store.BlocksWrit)/q
	calls := float64(n.store.Calls) / q

	// The store below the ORAM: in-process batches, or the wire.
	var readPath, writePath float64
	if rg.hasRemote {
		perRead := (rg.rpcReadPath.ns() - rg.rpcRead1.ns()) / (L - 1)
		perWrite := (rg.rpcWritePath.ns() - rg.rpcWrite1.ns()) / (L - 1)
		add("remote", "RemoteStore batch call, first block", (rg.rpcRead1.ns()+rg.rpcWrite1.ns())/2, calls)
		add("remote", "RemoteStore.ReadMany, per further block", perRead, blocksRead-float64(n.store.ReadCalls)/q)
		add("remote", "RemoteStore.WriteMany, per further block", perWrite, blocksWritten-float64(n.store.WriteCalls)/q)
		readPath, writePath = rg.memRead.ns(), rg.memWrite.ns() // what the access rung's MemStore cost
	} else {
		readPath, writePath = rg.memRead.ns(), rg.memWrite.ns()
		add("storage", "MemStore.ReadMany, per block", readPath/L, blocksRead)
		add("storage", "MemStore.WriteMany, per block", writePath/L, blocksWritten)
	}
	add("xcrypto", "Sealer.OpenTo, per bucket", rg.open.ns(), blocksRead)
	add("xcrypto", "Sealer.SealTo, per bucket", rg.seal.ns(), blocksWritten)
	oramSelf := rg.access.ns() - readPath - writePath - L*(rg.open.ns()+rg.seal.ns())
	add("oram", "PathORAM access, own work per bucket", oramSelf/(2*L), blocksRead+blocksWritten)
	btreeSelf := rg.lookup.ns() - rg.nodesPerLookup*rg.indexAccess.ns()
	add("btree", "Tree.LookupGE, own work", btreeSelf, n.indexAccesses/rg.nodesPerLookup/q)
	add("obliv", "Sorter.CompactReal of the output", rg.compact.ns(), 1)
	if rg.hasPlannerRungs {
		tableSelf := rg.store.ns() - rg.storeBlocksWritten*(rg.seal.ns()+writePath/L)
		add("operators", "SelectPadded of customer", rg.selectPadded.ns(), n.colds/q)
		add("table", "table.Store of the prepared input, own work", tableSelf, n.colds/q)
		add("query", "PlanQuery", rep.Metrics["query.plan_us"].Value*1e3, n.runs/q)
	}

	shares := map[string]float64{}
	total := 0.0
	for _, row := range rep.Ladder {
		shares[row.Layer] += row.Share
		total += row.Share
	}
	rep.LadderQueryMS = n.queryNS / 1e6
	rep.set("xcrypto.share", shares["xcrypto"])
	rep.set("obliv.share", shares["obliv"]+shares["operators"])
	rep.set("ladder.attributed_frac", total)
	rep.set("ladder.residual_frac", 1-total)
}
