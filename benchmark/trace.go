package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

// span is one timed interval recorded by the benchmark's own code: a query
// (one call into the facade-level entry point) or one call into a decorated
// storage.Store. Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // the query span a client-side store call belongs to; 0 for queries and server-side calls
	Query  int64  `json:"query"`  // shared by all spans of one query
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Blocks int    `json:"blocks,omitempty"`
}

// storeTotals sums the decorated calls of one side ("client" or "server").
type storeTotals struct {
	Calls      int64 `json:"calls"`
	ReadCalls  int64 `json:"read_calls"`
	WriteCalls int64 `json:"write_calls"`
	BlocksRead int64 `json:"blocks_read"`
	BlocksWrit int64 `json:"blocks_written"`
	BusyNS     int64 `json:"busy_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	totals map[string]*storeTotals // by side
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), totals: map[string]*storeTotals{"client": {}, "server": {}}}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot copies one side's totals.
func (r *recorder) snapshot(side string) storeTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return *r.totals[side]
}

func (t storeTotals) sub(o storeTotals) storeTotals {
	return storeTotals{
		Calls: t.Calls - o.Calls, ReadCalls: t.ReadCalls - o.ReadCalls, WriteCalls: t.WriteCalls - o.WriteCalls,
		BlocksRead: t.BlocksRead - o.BlocksRead, BlocksWrit: t.BlocksWrit - o.BlocksWrit, BusyNS: t.BusyNS - o.BusyNS,
	}
}

// write dumps every span as a JSON array.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = writeSpans(f, r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// scope is where client-side store calls find the query they belong to. One
// client runs one query at a time, so each client has its own scope.
type scope struct {
	rec   *recorder
	query atomic.Int64 // open query span, 0 between queries
}

// begin opens a query span; the returned function closes it.
func (sc *scope) begin(name string) func() {
	id := sc.rec.nextID.Add(1)
	sc.query.Store(id)
	start := time.Now()
	return func() {
		sc.query.Store(0)
		sc.rec.add(span{ID: id, Query: id, Name: name, Start: sc.rec.since(start), End: sc.rec.since(time.Now())})
	}
}

// wrapOpener decorates every store the opener provisions. side is "client"
// (the table.Options.OpenStore seam; sc links calls to the running query)
// or "server" (the remote.ServerOptions.OpenStore seam; sc is nil).
func (r *recorder) wrapOpener(side string, sc *scope, open storage.Opener) storage.Opener {
	return func(name string, slots int64, blockSize int) (storage.Store, error) {
		st, err := open(name, slots, blockSize)
		if err != nil {
			return nil, err
		}
		return r.wrapStore(side, sc, name, st), nil
	}
}

func (r *recorder) wrapStore(side string, sc *scope, name string, st storage.Store) storage.Store {
	x, ok := st.(storage.ExchangeStore)
	if !ok {
		panic("benchmark: decorated store " + name + " is not an ExchangeStore")
	}
	t := &timedStore{ExchangeStore: x, rec: r, side: side, sc: sc}
	for op, suffix := range opNames {
		t.names[op] = side + ":" + name + "." + suffix
	}
	return t
}

// timedStore records one span per call and forwards it. Every backend the
// benchmark decorates (MemStore, RemoteStore, diskstore.Store) implements
// ExchangeStore, so the ORAM's batch and exchange paths stay in use.
type timedStore struct {
	storage.ExchangeStore
	rec   *recorder
	side  string
	sc    *scope
	names [len(opNames)]string // span names, built once: a traced pass makes a million calls
}

const (
	opRead = iota
	opWrite
	opReadMany
	opWriteMany
	opExchange
)

var opNames = [...]string{opRead: "read", opWrite: "write", opReadMany: "readmany", opWriteMany: "writemany", opExchange: "exchange"}

func (t *timedStore) record(op int, start time.Time, reads, writes int) {
	end := time.Now()
	s := span{ID: t.rec.nextID.Add(1), Name: t.names[op], Start: t.rec.since(start), End: t.rec.since(end), Blocks: reads + writes}
	if t.sc != nil {
		s.Parent = t.sc.query.Load()
		s.Query = s.Parent
	}
	t.rec.mu.Lock()
	t.rec.spans = append(t.rec.spans, s)
	tot := t.rec.totals[t.side]
	tot.Calls++
	if reads > 0 {
		tot.ReadCalls++
	}
	if writes > 0 {
		tot.WriteCalls++
	}
	tot.BlocksRead += int64(reads)
	tot.BlocksWrit += int64(writes)
	tot.BusyNS += int64(end.Sub(start))
	t.rec.mu.Unlock()
}

func (t *timedStore) Read(i int64) ([]byte, error) {
	defer t.record(opRead, time.Now(), 1, 0)
	return t.ExchangeStore.Read(i)
}

func (t *timedStore) Write(i int64, data []byte) error {
	defer t.record(opWrite, time.Now(), 0, 1)
	return t.ExchangeStore.Write(i, data)
}

func (t *timedStore) ReadMany(idxs []int64) ([][]byte, error) {
	defer t.record(opReadMany, time.Now(), len(idxs), 0)
	return t.ExchangeStore.ReadMany(idxs)
}

func (t *timedStore) WriteMany(idxs []int64, data [][]byte) error {
	defer t.record(opWriteMany, time.Now(), 0, len(idxs))
	return t.ExchangeStore.WriteMany(idxs, data)
}

func (t *timedStore) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	defer t.record(opExchange, time.Now(), len(readIdxs), len(writeIdxs))
	return t.ExchangeStore.Exchange(writeIdxs, writeData, readIdxs)
}

// Sync and Close forward the persistent backend's lifecycle, which the
// server reaches through type assertions (checkpoint on session end and on
// shutdown).
func (t *timedStore) Sync() error {
	if s, ok := t.ExchangeStore.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

func (t *timedStore) Close() error {
	if c, ok := t.ExchangeStore.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// phaseTimes adds up the program's own telemetry span tree by phase name:
// the duration of every outermost span whose name is in phases, its
// children (the oblivious sort's sub-phases under "filter", say) included.
func phaseTimes(n *telemetry.Node, phases map[string]bool, into map[string]time.Duration) {
	if n == nil {
		return
	}
	if phases[n.Name] {
		into[n.Name] += n.Duration()
		return
	}
	for _, c := range n.Children {
		phaseTimes(c, phases, into)
	}
}
