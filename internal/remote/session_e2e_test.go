package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/session"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// sessionJoin dials its own client, opens a session for the tenant, and
// runs the standard loopback sort-merge join inside it with fully
// deterministic randomness. It returns the join result, the client-side
// access trace (unqualified store names, so traces are comparable across
// tenants and against sessionless runs), and the metered stats.
func sessionJoin(t *testing.T, addr, tenant string, seed uint64, k1, k2 []int64) (*core.Result, []storage.Access, storage.Stats) {
	t.Helper()
	m := storage.NewMeter()
	m.SetTracing(true)
	c, err := Dial(ClientOptions{Addr: addr, Meter: m, RetryBase: time.Millisecond, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.StartSession(tenant, 0); err != nil {
		t.Fatal(err)
	}
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{3}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	topts := table.Options{
		BlockPayload: 256,
		Meter:        m,
		Sealer:       sealer,
		Rand:         oram.NewSeededSource(seed),
		OpenStore:    c.Opener(),
	}
	t1, err := table.Store(e2eRel("t1", k1), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := table.Store(e2eRel("t2", k2), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SortMergeJoin(t1, t2, "k", "k", core.Options{
		Meter:        m,
		Sealer:       sealer,
		OutBlockSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EndSession(); err != nil {
		t.Fatal(err)
	}
	return res, m.Trace(), m.Snapshot()
}

// TestConcurrentSessionsMatchSerial is the PR's acceptance test: four
// simultaneous client sessions against one server must produce, per
// client, the same join results, the same client-visible access trace,
// and the same round count as the identical joins run serially. The
// broker may interleave rounds across sessions in any arrival order, but
// each session's own execution — and therefore its trace projection and
// rounds-per-access — must be exactly its serial execution.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	const clients = 4
	srv, _ := startServer(t, ServerOptions{MaxStoreBytes: 1 << 32}, ClientOptions{})
	addr := srv.ln.Addr().String()

	k1 := []int64{1, 2, 2, 4, 6, 7, 7, 9, 12, 15}
	k2 := []int64{2, 2, 3, 4, 7, 7, 7, 10, 12, 14}

	type outcome struct {
		result map[string]int
		trace  []storage.Access
		stats  storage.Stats
	}

	// Serial baseline: one session at a time, each in its own tenant.
	serial := make([]outcome, clients)
	for i := 0; i < clients; i++ {
		res, trace, stats := sessionJoin(t, addr, fmt.Sprintf("serial%d", i), uint64(100+i), k1, k2)
		serial[i] = outcome{multiset(res.Tuples), trace, stats}
	}

	// Concurrent run: the same four joins at once, fresh tenants.
	concurrent := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, trace, stats := sessionJoin(t, addr, fmt.Sprintf("conc%d", i), uint64(100+i), k1, k2)
			concurrent[i] = outcome{multiset(res.Tuples), trace, stats}
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		s, c := serial[i], concurrent[i]
		if len(s.result) == 0 {
			t.Fatalf("client %d: serial join produced nothing", i)
		}
		for k, n := range s.result {
			if c.result[k] != n {
				t.Fatalf("client %d: tuple %s count %d vs serial %d", i, k, c.result[k], n)
			}
		}
		if len(c.result) != len(s.result) {
			t.Fatalf("client %d: %d distinct tuples vs serial %d", i, len(c.result), len(s.result))
		}
		if d := tracecheck.Diff(s.trace, c.trace); d != "" {
			t.Fatalf("client %d: concurrent trace diverges from serial: %s", i, d)
		}
		if s.stats.NetworkRounds != c.stats.NetworkRounds {
			t.Fatalf("client %d: %d rounds concurrent vs %d serial", i, c.stats.NetworkRounds, s.stats.NetworkRounds)
		}
	}

	// The sessions really did overlap on the broker: with four clients
	// hammering one server, at least one round must have waited behind
	// another session's round. (Store guards are per-store and stores are
	// per-tenant here, so contention shows up on shared scheduling rather
	// than shared data — assert only that all sessions were admitted.)
	st := srv.Sessions().Snapshot()
	if st.Opened != 2*clients || st.Closed != 2*clients {
		t.Fatalf("session accounting: %+v", st)
	}
	if bs := srv.BrokerStats(); bs.Stores == 0 || bs.Rounds == 0 {
		t.Fatalf("broker saw no traffic: %+v", bs)
	}
}

// TestSessionNamespaceIsolation checks the tenant boundary end to end: two
// tenants create a store under the same client-visible name with different
// contents and each reads back its own; a sessionless client can neither
// open the name (it lives in no global namespace) nor address the
// qualified form directly.
func TestSessionNamespaceIsolation(t *testing.T) {
	srv, c0 := startServer(t, ServerOptions{}, ClientOptions{})
	addr := srv.ln.Addr().String()

	open := func(tenant string) (*Client, *RemoteStore) {
		c, err := Dial(ClientOptions{Addr: addr, RetryBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.StartSession(tenant, 0); err != nil {
			t.Fatal(err)
		}
		st, err := c.Create("data", 4, 32)
		if err != nil {
			t.Fatal(err)
		}
		return c, st
	}
	_, alice := open("alice")
	_, bob := open("bob")

	wa := bytes.Repeat([]byte{0xAA}, 32)
	wb := bytes.Repeat([]byte{0xBB}, 32)
	if err := alice.Write(1, wa); err != nil {
		t.Fatal(err)
	}
	if err := bob.Write(1, wb); err != nil {
		t.Fatal(err)
	}
	ga, err := alice.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := bob.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, wa) || !bytes.Equal(gb, wb) {
		t.Fatalf("cross-tenant bleed: alice %x, bob %x", ga[0], gb[0])
	}

	// Sessionless clients see neither the bare nor the qualified name.
	if _, err := c0.Open("data"); err == nil {
		t.Fatal("sessionless open of a tenant store succeeded")
	}
	qualified := session.Qualify("alice", "data")
	if _, err := c0.Open(qualified); err == nil || !strings.Contains(err.Error(), "tenant namespace") {
		t.Fatalf("direct qualified open: %v", err)
	}
	// But the server does host it under the qualified name.
	if srv.Counts(qualified).Requests == 0 {
		t.Fatalf("server counters missing qualified store; hosted: %v", srv.StoreNames())
	}
}

// TestSessionAdmissionControl exercises the cap over the wire: with a
// session table of two, a third hello is refused with the typed busy
// error, and releasing a slot admits it.
func TestSessionAdmissionControl(t *testing.T) {
	srv, _ := startServer(t, ServerOptions{MaxSessions: 2}, ClientOptions{})
	addr := srv.ln.Addr().String()

	dial := func() *Client {
		c, err := Dial(ClientOptions{Addr: addr, RetryBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c1, c2, c3 := dial(), dial(), dial()
	if err := c1.StartSession("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := c2.StartSession("b", 0); err != nil {
		t.Fatal(err)
	}
	err := c3.StartSession("c", 0)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("over-cap hello: got %v, want ErrBusy", err)
	}
	if err := c1.EndSession(); err != nil {
		t.Fatal(err)
	}
	if err := c3.StartSession("c", 0); err != nil {
		t.Fatalf("hello after release: %v", err)
	}
	st := srv.Sessions().Snapshot()
	if st.Rejected != 1 || st.Opened != 3 {
		t.Fatalf("admission stats: %+v", st)
	}
}

// TestSessionExpiryOverWire lets a session's idle deadline lapse and
// checks the next request fails with a permanent session error the client
// does not retry into oblivion.
func TestSessionExpiryOverWire(t *testing.T) {
	srv, _ := startServer(t, ServerOptions{SessionTimeout: 50 * time.Millisecond}, ClientOptions{})
	c, err := Dial(ClientOptions{Addr: srv.ln.Addr().String(), RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.StartSession("t", 0); err != nil {
		t.Fatal(err)
	}
	st, err := c.Create("s", 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := st.Read(0); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("post-expiry read: %v", err)
	}
}

// TestCloseDrainsActiveSessions pins the shutdown fix: Close must not
// checkpoint stores while a session is mid-join. A session-holding client
// keeps working during the drain window (its connection stays up even
// though the listener is gone) and Close returns promptly once the client
// says goodbye; new sessions are refused the moment draining starts.
func TestCloseDrainsActiveSessions(t *testing.T) {
	srv := NewServer(ServerOptions{DrainTimeout: 5 * time.Second})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ClientOptions{Addr: addr.String(), RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A second client dialed before the listener goes away, to probe
	// admission during the drain. Its connection must be served before the
	// drain begins: one the server has not yet accepted when Close starts is
	// dropped — with the listener, or by the accept loop, which closes what
	// it accepts once closing — and every later probe would dial a closed
	// port, never to see ErrBusy. A round trip makes sure it was accepted.
	late, err := Dial(ClientOptions{Addr: addr.String(), RetryBase: time.Millisecond, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := late.StartSession("x", 0); err != nil {
		t.Fatal(err)
	}
	if err := late.EndSession(); err != nil {
		t.Fatal(err)
	}

	if err := c.StartSession("t", 0); err != nil {
		t.Fatal(err)
	}
	st, err := c.Create("s", 8, 32)
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	start := time.Now()
	go func() { closed <- srv.Close() }()

	// Wait until the drain has begun (new sessions refused).
	var probe error
	for i := 0; ; i++ {
		if probe = late.StartSession("x", 0); errors.Is(probe, ErrBusy) {
			break
		} else if probe == nil {
			_ = late.EndSession()
		}
		if i > 500 {
			t.Fatalf("drain never started refusing sessions; last probe: %v", probe)
		}
		time.Sleep(time.Millisecond)
	}

	// The live session still serves mid-drain.
	if err := st.Write(3, bytes.Repeat([]byte{9}, 32)); err != nil {
		t.Fatalf("write during drain: %v", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned before the session ended: %v", err)
	default:
	}

	if err := c.EndSession(); err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e >= 5*time.Second {
		t.Fatalf("Close waited out the whole drain timeout (%v)", e)
	}
}

// TestClientContextDeadline is the deadline-propagation satellite. A hung
// server — one that accepts connections and then never responds — must not
// wedge the client past its bound context's deadline: each attempt's
// net.Conn deadline is tightened to the context deadline, and the retry
// loop stops at cancellation.
func TestClientContextDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }() // swallow, never reply
		}
	}()

	c, err := Dial(ClientOptions{Addr: ln.Addr().String(), RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	c.BindContext(ctx)
	start := time.Now()
	_, err = c.Open("s")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("open against a hung server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context deadline in the chain", err)
	}
	// Well under the 30s default request timeout that used to bound this.
	if elapsed > 2*time.Second {
		t.Fatalf("client hung for %v despite a 150ms context deadline", elapsed)
	}

	// An already-expired context fails before any I/O.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	c.BindContext(expired)
	if _, err := c.Open("s"); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context: %v", err)
	}
}

// TestServerDeadlineFastFail checks the wire deadline's server-side
// meaning: when the client's declared remaining budget is smaller than the
// latency the fault model would impose, the server answers immediately
// instead of serving a reply nobody waits for.
func TestServerDeadlineFastFail(t *testing.T) {
	srv, _ := startServer(t, ServerOptions{Faults: &Shaper{Latency: 300 * time.Millisecond}},
		ClientOptions{})
	c, err := Dial(ClientOptions{Addr: srv.ln.Addr().String(), RetryBase: time.Millisecond, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Store creation pays the latency (10s budget > 300ms).
	st, err := c.Create("s", 4, 32)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	c.BindContext(ctx)
	start := time.Now()
	_, err = st.Read(0)
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded before service") {
		t.Fatalf("got %v, want server fast-fail", err)
	}
	if e := time.Since(start); e >= 300*time.Millisecond {
		t.Fatalf("server slept the full latency (%v) despite the declared deadline", e)
	}
}

// TestPlanCacheNamespaceIsolation checks the reserved plan-cache tree over
// the wire: two tenants cache an intermediate under the same
// client-visible "plan:" name with different contents and each reads back
// its own, and a sessionless client is refused the qualified form exactly
// like an ordinary tenant store (the reuse of the reserved-prefix refusal
// path for "pc:").
func TestPlanCacheNamespaceIsolation(t *testing.T) {
	srv, c0 := startServer(t, ServerOptions{}, ClientOptions{})
	addr := srv.ln.Addr().String()

	cacheName := session.PlanCachePrefix + "deadbeef01234567/a.data"
	open := func(tenant string) *RemoteStore {
		c, err := Dial(ClientOptions{Addr: addr, RetryBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.StartSession(tenant, 0); err != nil {
			t.Fatal(err)
		}
		st, err := c.Create(cacheName, 4, 32)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	alice := open("alice")
	bob := open("bob")

	wa := bytes.Repeat([]byte{0xA1}, 32)
	wb := bytes.Repeat([]byte{0xB2}, 32)
	if err := alice.Write(2, wa); err != nil {
		t.Fatal(err)
	}
	if err := bob.Write(2, wb); err != nil {
		t.Fatal(err)
	}
	ga, err := alice.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := bob.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, wa) || !bytes.Equal(gb, wb) {
		t.Fatalf("cross-tenant plan-cache bleed: alice %x, bob %x", ga[0], gb[0])
	}

	// The server hosts the entry under the pc: tree, tenant-split.
	qualified := session.Qualify("alice", cacheName)
	if !strings.HasPrefix(qualified, "pc:") {
		t.Fatalf("qualified plan-cache name %q not in the pc: tree", qualified)
	}
	if srv.Counts(qualified).Requests == 0 {
		t.Fatalf("server counters missing qualified cache store; hosted: %v", srv.StoreNames())
	}

	// Sessionless clients cannot address another tenant's cache entry.
	if _, err := c0.Open(qualified); err == nil || !strings.Contains(err.Error(), "tenant namespace") {
		t.Fatalf("direct qualified plan-cache open: %v", err)
	}
}
