package remote

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

// startServer brings up a loopback server and a client on it, torn down
// with the test.
func startServer(t testing.TB, sopts ServerOptions, copts ClientOptions) (*Server, *Client) {
	t.Helper()
	srv := NewServer(sopts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	copts.Addr = addr.String()
	if copts.RetryBase == 0 {
		copts.RetryBase = time.Millisecond
	}
	c, err := Dial(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestRemoteSingleOps(t *testing.T) {
	srv, c := startServer(t, ServerOptions{}, ClientOptions{})
	st, err := c.Create("blocks", 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 8 || st.BlockSize() != 32 || st.Name() != "blocks" {
		t.Fatalf("geometry: %d × %d (%s)", st.Len(), st.BlockSize(), st.Name())
	}
	blk := bytes.Repeat([]byte{0xC3}, 32)
	if err := st.Write(5, blk); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Fatal("read back mismatch")
	}
	// A second client attaches to the same store via Stat.
	c2, err := Dial(ClientOptions{Addr: c.opts.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Open("blocks")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 8 || st2.BlockSize() != 32 {
		t.Fatalf("stat geometry: %d × %d", st2.Len(), st2.BlockSize())
	}
	got, err = st2.Read(5)
	if err != nil || !bytes.Equal(got, blk) {
		t.Fatalf("cross-client read: %v", err)
	}
	// Server-side counters saw every request: a single-block read or write
	// is an exchange share of that shape.
	counts := srv.Counts("blocks")
	if counts.BatchReads != 2 || counts.BatchWrites != 1 || counts.Stats != 1 {
		t.Fatalf("counters: %+v", counts)
	}
}

func TestRemoteErrorsArePermanent(t *testing.T) {
	_, c := startServer(t, ServerOptions{}, ClientOptions{MaxRetries: 2})
	st, err := c.Create("small", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range and geometry errors surface as RemoteError without
	// burning retries.
	var re *RemoteError
	if _, err := st.Read(99); !errors.As(err, &re) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := st.Write(0, []byte("short")); !errors.As(err, &re) {
		t.Fatalf("short write: %v", err)
	}
	if _, err := c.Open("nonexistent"); !errors.As(err, &re) {
		t.Fatalf("open missing: %v", err)
	}
	if _, err := c.Create("small", 4, 16); !errors.As(err, &re) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := c.Create("huge", 1<<40, 1<<20); !errors.As(err, &re) {
		t.Fatalf("oversized create: %v", err)
	}
}

func TestRemoteBatchOps(t *testing.T) {
	srv, c := startServer(t, ServerOptions{}, ClientOptions{})
	st, err := c.Create("batch", 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	idxs := []int64{2, 7, 3, 11}
	data := make([][]byte, len(idxs))
	for k := range idxs {
		data[k] = bytes.Repeat([]byte{byte(k + 1)}, 8)
	}
	before := srv.Counts("batch").Requests
	if err := st.WriteMany(idxs, data); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadMany(idxs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range idxs {
		if !bytes.Equal(got[k], data[k]) {
			t.Fatalf("block %d mismatch", idxs[k])
		}
	}
	// The two batches cost exactly two round trips, regardless of size.
	if d := srv.Counts("batch").Requests - before; d != 2 {
		t.Fatalf("batch ops used %d requests, want 2", d)
	}
	counts := srv.Counts("batch")
	if counts.BatchReads != 1 || counts.BatchWrites != 1 ||
		counts.BlocksRead != 4 || counts.BlocksWritten != 4 {
		t.Fatalf("counters: %+v", counts)
	}
	// Batch errors propagate.
	if _, err := st.ReadMany([]int64{0, 99}); err == nil {
		t.Fatal("out-of-range batch read accepted")
	}
	if err := st.WriteMany([]int64{0}, data); err == nil {
		t.Fatal("mismatched batch write accepted")
	}
	// Empty batches are free.
	if out, err := st.ReadMany(nil); err != nil || out != nil {
		t.Fatalf("empty batch: %v %v", out, err)
	}
}

func TestRemoteMeterCountsRealRounds(t *testing.T) {
	m := storage.NewMeter()
	m.SetTracing(true)
	_, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	st, err := c.Create("metered", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	idxs := []int64{1, 4, 6}
	blocks := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	if err := st.WriteMany(idxs, blocks); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadMany(idxs); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(0); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.NetworkRounds != 3 {
		t.Fatalf("rounds %d, want 3 (2 batches + 1 single)", s.NetworkRounds)
	}
	if s.BlockReads != 4 || s.BlockWrites != 3 {
		t.Fatalf("blocks: %+v", s)
	}
	if tr := m.Trace(); len(tr) != 7 || tr[0].Store != "metered" {
		t.Fatalf("trace: %d entries", len(tr))
	}
}

func TestRemoteRetryOnTransientFaults(t *testing.T) {
	shaper := &Shaper{FailEvery: 2} // every other request fails
	srv, c := startServer(t, ServerOptions{Faults: shaper}, ClientOptions{MaxRetries: 3})
	st, err := c.Create("flaky", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := st.Write(i, bytes.Repeat([]byte{byte(i)}, 8)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := int64(0); i < 8; i++ {
		got, err := st.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("read %d = %d", i, got[0])
		}
	}
	// Every op succeeded, so the server must have served roughly twice as
	// many requests as logical operations.
	if reqs := shaper.Requests(); reqs < 30 {
		t.Fatalf("shaper saw %d requests; retries did not happen", reqs)
	}
	if counts := srv.Counts("flaky"); counts.BatchReads != 8 || counts.BatchWrites != 8 {
		t.Fatalf("executed ops: %+v", counts)
	}
}

func TestRemoteRetryExhaustion(t *testing.T) {
	// Everything fails: the client must give up after MaxRetries+1 attempts
	// with the transient cause attached.
	shaper := &Shaper{FailEvery: 1}
	_, c := startServer(t, ServerOptions{Faults: shaper}, ClientOptions{MaxRetries: 2})
	_, err := c.Create("doomed", 4, 8)
	if err == nil {
		t.Fatal("create succeeded under total fault injection")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error: %v", err)
	}
	if got := shaper.Requests(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestFrameTooLargeIsNotRetried: a frame over MaxFrame is over it on every
// attempt, so neither direction may enter the retry loop. An oversized
// request never leaves the client; an oversized response costs the one
// attempt that produced it.
func TestFrameTooLargeIsNotRetried(t *testing.T) {
	const bs, n = 1024, 8 // one block fits a 4 KB frame, the batch does not
	shaper := &Shaper{}
	_, c := startServer(t, ServerOptions{Faults: shaper}, ClientOptions{MaxFrame: 4096, MaxRetries: 3})
	st, err := c.Create("big", n, bs)
	if err != nil {
		t.Fatal(err)
	}
	idxs := make([]int64, n)
	data := make([][]byte, n)
	for i := range idxs {
		idxs[i] = int64(i)
		data[i] = make([]byte, bs)
	}
	before := shaper.Requests()
	if _, err := st.ReadMany(idxs); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized response: err = %v, want ErrFrameTooLarge", err)
	}
	if got := shaper.Requests() - before; got != 1 {
		t.Fatalf("oversized response: %d attempts reached the server, want 1", got)
	}
	if err := st.WriteMany(idxs, data); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request: err = %v, want ErrFrameTooLarge", err)
	}
	if got := shaper.Requests() - before; got != 1 {
		t.Fatalf("oversized request: %d more attempts reached the server, want 0", got-1)
	}
	if _, err := st.Read(0); err != nil {
		t.Fatalf("client unusable after a refused frame: %v", err)
	}
}

func TestRemoteLatencyInjection(t *testing.T) {
	const rtt = 20 * time.Millisecond
	_, c := startServer(t, ServerOptions{Faults: &Shaper{Latency: rtt}}, ClientOptions{})
	st, err := c.Create("slow", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := st.Read(0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < rtt {
		t.Fatalf("read took %v, want >= %v", took, rtt)
	}
}

func TestRemoteRequestTimeout(t *testing.T) {
	// A server that injects latency far beyond the request timeout: the
	// client must abort the round trip, retry, and ultimately fail fast
	// rather than hang.
	_, c := startServer(t,
		ServerOptions{Faults: &Shaper{Latency: 400 * time.Millisecond}},
		ClientOptions{RequestTimeout: 50 * time.Millisecond, MaxRetries: 1})
	start := time.Now()
	_, err := c.Create("stuck", 4, 8)
	if err == nil {
		t.Fatal("call under extreme latency succeeded")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("timeout path took %v", took)
	}
}

func TestRemoteGracefulClose(t *testing.T) {
	srv, c := startServer(t, ServerOptions{}, ClientOptions{MaxRetries: 1, RequestTimeout: 200 * time.Millisecond})
	st, err := c.Create("closing", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is safe.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(0); err == nil {
		t.Fatal("read after server close succeeded")
	}
	// Client close releases the pool; further calls fail immediately.
	c.Close()
	if _, err := st.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after client close: %v", err)
	}
}

func TestServerRejectsGarbageConnection(t *testing.T) {
	srv := NewServer(ServerOptions{MaxFrame: 1 << 16})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A syntactically valid frame with garbage contents gets an error
	// response and the connection is dropped.
	if _, err := conn.Write([]byte{0, 0, 0, 3, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrameInto(conn, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError {
		t.Fatalf("status %d", resp.Status)
	}
	if _, err := ReadFrameInto(conn, 0, nil); err == nil {
		t.Fatal("connection survived protocol error")
	}
}

// TestPathORAMOverRemoteOneRoundTrip is the acceptance check for the
// path-RPC fast path: one Path-ORAM access over the remote client costs
// exactly one network round trip — an exchange that writes the previous
// access's path back and reads this one's — asserted against server-side
// request counts.
func TestPathORAMOverRemoteOneRoundTrip(t *testing.T) {
	// Over a real transport the client-side meter lives in the transport:
	// the RemoteStore accounts each RPC, not the ORAM layer.
	m := storage.NewMeter()
	srv, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{9}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name:        "remote.oram",
		Capacity:    64,
		PayloadSize: 32,
		Sealer:      sealer,
		Rand:        oram.NewSeededSource(11),
		OpenStore:   c.Opener(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Write(3, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}

	ops := []func() error{
		func() error { _, err := o.Read(3); return err },
		func() error { return o.Write(9, []byte("x")) },
		o.DummyAccess,
		func() error { _, err := o.Update(3, func(p []byte) error { p[0] = 'O'; return err }); return err },
	}
	for i, op := range ops {
		before := srv.Counts("remote.oram")
		mBefore := m.Snapshot()
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		d := srv.Counts("remote.oram")
		if reqs := d.Requests - before.Requests; reqs != 1 {
			t.Fatalf("op %d cost %d server round trips, want 1", i, reqs)
		}
		if d.Exchanges-before.Exchanges != 1 || d.BatchReads != before.BatchReads || d.BatchWrites != before.BatchWrites {
			t.Fatalf("op %d batches: %+v -> %+v", i, before, d)
		}
		// Two whole paths moved in that trip, one each way.
		if down, up := d.BlocksRead-before.BlocksRead, d.BlocksWritten-before.BlocksWritten; down != int64(o.Levels()) || up != int64(o.Levels()) {
			t.Fatalf("op %d read %d and wrote %d blocks, want %d each", i, down, up, o.Levels())
		}
		// Client-side meter agrees with the server.
		if dm := m.Snapshot().Sub(mBefore); dm.NetworkRounds != 1 {
			t.Fatalf("op %d client-side rounds %d, want 1", i, dm.NetworkRounds)
		}
	}
	// The last path goes up when the tree is settled: one batch write.
	before := srv.Counts("remote.oram")
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := srv.Counts("remote.oram"); d.Requests-before.Requests != 1 || d.BatchWrites-before.BatchWrites != 1 {
		t.Fatalf("flush: %+v -> %+v", before, d)
	}

	// Data written over the wire reads back intact.
	got, err := o.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:13]) != "Over the wire" {
		t.Fatalf("got %q", got[:13])
	}
}

// TestPathORAMOverRemoteSurvivesFaults runs the same ORAM workload under
// deterministic fault injection: the client's retries must make every
// access succeed with identical results.
func TestPathORAMOverRemoteSurvivesFaults(t *testing.T) {
	shaper := &Shaper{FailEvery: 5}
	_, c := startServer(t, ServerOptions{Faults: shaper}, ClientOptions{MaxRetries: 4})
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{9}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name:        "faulty.oram",
		Capacity:    32,
		PayloadSize: 16,
		Sealer:      sealer,
		Rand:        oram.NewSeededSource(4),
		OpenStore:   c.Opener(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if err := o.Write(i, []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 32; i++ {
		got, err := o.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := fmt.Sprintf("v%02d", i); string(got[:3]) != want {
			t.Fatalf("read %d = %q", i, got[:3])
		}
	}
	if shaper.Requests() == 0 {
		t.Fatal("shaper never consulted")
	}
}
