package remote

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/query"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

// opRecorder is a FaultModel that shapes nothing and records every decoded
// request: its op, and whether it carried blocks outside an exchange share.
type opRecorder struct {
	mu    sync.Mutex
	ops   map[Op]int
	loose int // requests with Indices or Blocks
}

func newOpRecorder() *opRecorder { return &opRecorder{ops: map[Op]int{}} }

func (r *opRecorder) Next(req *Request) (time.Duration, bool) {
	r.mu.Lock()
	r.ops[req.Op]++
	if len(req.Indices) > 0 || len(req.Blocks) > 0 {
		r.loose++
	}
	r.mu.Unlock()
	return 0, false
}

// check fails unless block traffic arrived as OpExchange alone, beside the
// control ops, and some did arrive.
func (r *opRecorder) check(t *testing.T, what string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var seen []string
	for op, n := range r.ops {
		seen = append(seen, fmt.Sprintf("%s×%d", op, n))
	}
	sort.Strings(seen)
	for op := range r.ops {
		switch op {
		case OpExchange, OpCreate, OpStat, OpHello, OpBye, OpTrace:
		default:
			t.Errorf("%s: the server was sent %s requests; block traffic must travel as exchange shares (%v)", what, op, seen)
		}
	}
	if r.ops[OpExchange] == 0 {
		t.Errorf("%s: no exchange reached the server (%v)", what, seen)
	}
	if r.loose > 0 {
		t.Errorf("%s: %d requests carried blocks outside a share", what, r.loose)
	}
}

// wireTables uploads the two tables of a join to c's server.
func wireTables(t *testing.T, c *Client, m *storage.Meter, sealer *xcrypto.Sealer, oneORAM bool) (t1, t2 *table.StoredTable, topts table.Options) {
	t.Helper()
	k1 := []int64{1, 2, 2, 4, 6, 7, 7, 9, 12, 15}
	k2 := []int64{2, 2, 3, 4, 7, 7, 7, 10, 12, 14}
	topts = table.Options{
		BlockPayload: 256,
		Meter:        m,
		Sealer:       sealer,
		Rand:         oram.NewSeededSource(11),
		OpenStore:    c.Opener(),
	}
	if oneORAM {
		tabs, err := table.StoreShared([]*relation.Relation{e2eRel("t1", k1), e2eRel("t2", k2)},
			map[string][]string{"t1": {"k"}, "t2": {"k"}}, topts)
		if err != nil {
			t.Fatal(err)
		}
		return tabs["t1"], tabs["t2"], topts
	}
	var err error
	if t1, err = table.Store(e2eRel("t1", k1), []string{"k"}, topts); err != nil {
		t.Fatal(err)
	}
	if t2, err = table.Store(e2eRel("t2", k2), []string{"k"}, topts); err != nil {
		t.Fatal(err)
	}
	return t1, t2, topts
}

// TestWireGrammarIsExchangeOnly: every block a client moves reaches the
// server as a share of an OpExchange — the setup upload, a sort-merge join,
// a planned query whose filter is pushed down (the whole-tree scan and the
// prepared input's upload), a OneORAM index nested-loop join, and a join
// against a diskstore.Dir server that is restarted under the client. Beside
// exchanges the server sees only the control ops: create, stat, hello, bye
// and trace. A recording FaultModel sees every decoded request.
func TestWireGrammarIsExchangeOnly(t *testing.T) {
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{6}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	jopts := func(m *storage.Meter) core.Options {
		return core.Options{Meter: m, Sealer: sealer, OutBlockSize: 256}
	}

	t.Run("setup", func(t *testing.T) {
		rec := newOpRecorder()
		_, c := startServer(t, ServerOptions{Faults: rec}, ClientOptions{})
		wireTables(t, c, storage.NewMeter(), sealer, false)
		rec.check(t, "setup upload")
	})

	t.Run("SortMergeJoin", func(t *testing.T) {
		rec := newOpRecorder()
		_, c := startServer(t, ServerOptions{Faults: rec}, ClientOptions{})
		m := storage.NewMeter()
		t1, t2, _ := wireTables(t, c, m, sealer, false)
		if _, err := core.SortMergeJoin(t1, t2, "k", "k", jopts(m)); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "sort-merge join")
	})

	t.Run("PlannedFilter", func(t *testing.T) {
		rec := newOpRecorder()
		_, c := startServer(t, ServerOptions{Faults: rec}, ClientOptions{})
		if err := c.StartSession("acme", 0); err != nil {
			t.Fatal(err)
		}
		m := storage.NewMeter()
		t1, t2, topts := wireTables(t, c, m, sealer, false)
		ex := &query.Executor{
			Tables:    map[string]*table.StoredTable{"t1": t1, "t2": t2},
			TableOpts: topts,
			JoinOpts:  jopts(m),
			OpOpts:    operators.Options{BlockSize: 256, Meter: m, Sealer: sealer},
			Cache:     query.NewCache(bytes.Repeat([]byte{42}, 32)),
		}
		out, err := ex.Run(query.Spec{
			Tables:  []string{"t1", "t2"},
			Preds:   []jointree.Pred{{Left: "t1", LeftAttr: "k", Right: "t2", RightAttr: "k"}},
			Filters: []query.Filter{{Table: "t1", Preds: []operators.Pred{{Column: "k", Op: operators.LE, Value: 7}}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheMisses == 0 {
			t.Fatal("the filter was not pushed down: no prepared input was built")
		}
		if err := c.EndSession(); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "planned query with a filter")
	})

	t.Run("OneORAMIndexNestedLoop", func(t *testing.T) {
		rec := newOpRecorder()
		_, c := startServer(t, ServerOptions{Faults: rec}, ClientOptions{})
		m := storage.NewMeter()
		t1, t2, _ := wireTables(t, c, m, sealer, true)
		if _, err := core.IndexNestedLoopJoin(t1, t2, "k", "k", jopts(m)); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "OneORAM index nested-loop join")
	})

	t.Run("DiskRestart", func(t *testing.T) {
		rec := newOpRecorder()
		data := t.TempDir()
		dir1, err := diskstore.Open(data, diskstore.Options{SyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv1 := NewServer(ServerOptions{Faults: rec, OpenStore: dir1.Opener()})
		addr, err := srv1.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(ClientOptions{Addr: addr.String(), MaxRetries: 8, RetryBase: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		m := storage.NewMeter()
		t1, t2, _ := wireTables(t, c, m, sealer, false)
		if _, err := core.SortMergeJoin(t1, t2, "k", "k", jopts(m)); err != nil {
			t.Fatal(err)
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}
		if err := dir1.Close(); err != nil {
			t.Fatal(err)
		}
		dir2, err := diskstore.Open(data, diskstore.Options{SyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer dir2.Close()
		srv2 := NewServer(ServerOptions{Faults: rec, OpenStore: dir2.Opener()})
		for _, n := range dir2.Names() {
			if err := srv2.Register(n, dir2.Get(n)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv2.Listen(addr.String()); err != nil {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		defer srv2.Close()
		if _, err := core.SortMergeJoin(t1, t2, "k", "k", jopts(m)); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "join across a disk server restart")
	})
}
