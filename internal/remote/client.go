package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

// ClientOptions configures a Client.
type ClientOptions struct {
	// Addr is the server's TCP address.
	Addr string
	// PoolSize caps the idle connections kept for reuse; 0 means 4.
	PoolSize int
	// DialTimeout bounds connection establishment; 0 means 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one round trip (write request, read response);
	// 0 means 30s.
	RequestTimeout time.Duration
	// MaxRetries is how many times a transient failure (injected fault,
	// network error, timeout) is retried before giving up; 0 means 4.
	// Retries back off exponentially from RetryBase.
	MaxRetries int
	// RetryBase is the first backoff delay; 0 means 5ms. Doubles per
	// attempt, capped at 1s.
	RetryBase time.Duration
	// MaxFrame bounds frames in both directions — a request is checked
	// before it is sent, a response before it is read; 0 means
	// DefaultMaxFrame. Either overrun is ErrFrameTooLarge, never retried.
	MaxFrame int
	// Meter, when non-nil, receives client-side traffic accounting: every
	// successful RPC is one network round, batch ops are one round with
	// many block accesses — the real-transport version of the simulated
	// accounting MemStore reports.
	Meter *storage.Meter
}

func (o ClientOptions) poolSize() int {
	if o.PoolSize <= 0 {
		return 4
	}
	return o.PoolSize
}

func (o ClientOptions) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o ClientOptions) requestTimeout() time.Duration {
	if o.RequestTimeout <= 0 {
		return 30 * time.Second
	}
	return o.RequestTimeout
}

func (o ClientOptions) maxRetries() int {
	if o.MaxRetries <= 0 {
		return 4
	}
	return o.MaxRetries
}

func (o ClientOptions) retryBase() time.Duration {
	if o.RetryBase <= 0 {
		return 5 * time.Millisecond
	}
	return o.RetryBase
}

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("remote: client is closed")

// ErrBusy is the typed admission-control rejection: the server's session
// table is full (or it is draining for shutdown). Unlike a transient
// fault it is not retried by the client's backoff loop — the caller
// decides whether to wait, shed load, or fail over.
var ErrBusy = errors.New("remote: server at session capacity")

// RemoteError is a permanent failure reported by the server.
type RemoteError struct {
	Msg string
	// Busy marks an admission-control rejection (wire StatusBusy).
	Busy bool
}

func (e *RemoteError) Error() string { return e.Msg }

// Is preserves sentinel matches across the wire: the server flattens errors
// to strings, so the client re-recognizes well-known storage sentinels by
// their (stable, documented) message. This is what lets a caller write
// errors.Is(err, storage.ErrOutOfRange) — or errors.Is(err, ErrBusy) —
// and not care whether the store is local or behind the transport.
func (e *RemoteError) Is(target error) bool {
	switch target {
	case storage.ErrOutOfRange:
		return strings.Contains(e.Msg, storage.ErrOutOfRange.Error())
	case ErrBusy:
		return e.Busy
	}
	return false
}

// errTransient wraps failures the client may retry.
type errTransient struct{ err error }

func (e *errTransient) Error() string { return e.err.Error() }
func (e *errTransient) Unwrap() error { return e.err }

// frame is a reusable request/response buffer pair. One frame serves one
// round trip; pooling them makes steady-state encoding and frame reads
// allocation-free. roundTrip moves the response's blocks out of the frame
// into the caller's buffer before releasing it, so nothing returned to a
// caller aliases pooled memory.
type frame struct{ out, in []byte }

var framePool = sync.Pool{New: func() any { return &frame{} }}

// Client is a connection-pooled handle to a remote block server. It is safe
// for concurrent use; each in-flight request holds one pooled connection.
//
// A client may carry at most one server session (StartSession); every
// subsequent request then travels with the session ID and is resolved in
// the session tenant's store namespace. The session rides the request, not
// the connection, so it survives connection churn and pool reuse.
type Client struct {
	opts ClientOptions

	// srtt is the smoothed time, in nanoseconds, a request waits for its
	// reply — what having a second request in flight could hide (overlaps).
	srtt atomic.Int64

	mu      sync.Mutex
	idle    []net.Conn
	closed  bool
	ctx     context.Context
	session int64
	flight  *telemetry.Flight
}

// SetFlight attaches a trace-context carrier: while a trace is active on
// it, every store request is stamped with the trace ID, a fresh span ID,
// and the current public phase label so the server's spans can be grafted
// back into the client's span tree. A nil flight detaches. The stamps are
// a function of public data only (see telemetry.Flight), so traced and
// untraced runs issue byte-identical store access sequences apart from
// the trace section itself.
func (c *Client) SetFlight(f *telemetry.Flight) {
	c.mu.Lock()
	c.flight = f
	c.mu.Unlock()
}

// stamp fills the request's trace section from the attached flight, if a
// trace is active. Control ops (hello/bye/trace) stay unstamped: they are
// not part of the data-access schedule a span tree describes.
func (c *Client) stamp(req *Request) {
	switch req.Op {
	case OpHello, OpBye, OpTrace:
		return
	}
	c.mu.Lock()
	f := c.flight
	c.mu.Unlock()
	if f == nil || !f.Active() {
		return
	}
	req.TraceID = f.TraceID()
	req.SpanID = f.NextSpanID()
	req.Phase = f.Phase()
}

// Dial connects to a block server, verifying reachability with one pooled
// connection up front.
func Dial(opts ClientOptions) (*Client, error) {
	c := &Client{opts: opts}
	start := time.Now()
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", opts.Addr, err)
	}
	c.waited(time.Since(start)) // the handshake is the first round trip
	c.put(conn)
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	return net.DialTimeout("tcp", c.opts.Addr, c.opts.dialTimeout())
}

// get checks a connection out of the pool, dialing a fresh one when empty.
func (c *Client) get() (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	return c.dial()
}

func (c *Client) put(conn net.Conn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.opts.poolSize() {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	conn.Close()
}

// Close ends the client's server session (if any) and releases all pooled
// connections.
func (c *Client) Close() error {
	c.mu.Lock()
	sid := c.session
	c.mu.Unlock()
	if sid != 0 {
		// Best-effort goodbye; the server's idle deadline reaps the session
		// anyway if this races with shutdown or a dead network.
		_ = c.EndSession()
	}
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	return nil
}

// BindContext attaches a context to the client: from now on every request
// checks it before dialing or retrying, its deadline tightens the
// connection I/O deadline (net.Conn SetDeadline), and the remaining budget
// travels to the server in the request's DeadlineMS field so a saturated
// or fault-shaped server can fail fast instead of serving a reply nobody
// is waiting for. A nil context unbinds. The binding applies to requests
// started after the call.
func (c *Client) BindContext(ctx context.Context) {
	c.mu.Lock()
	c.ctx = ctx
	c.mu.Unlock()
}

// boundCtx returns the bound context, never nil.
func (c *Client) boundCtx() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// sessionID returns the live session ID, or 0.
func (c *Client) sessionID() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Session returns the live session ID (0 = sessionless) so callers can
// attribute client-side telemetry spans to the server session serving
// them (the server's own attribution is session.Session.Annotate).
func (c *Client) Session() int64 { return c.sessionID() }

// StartSession opens a server session scoped to the tenant's store
// namespace; idle requests a session idle timeout (0 = server default;
// the server may grant less). All subsequent requests on this client are
// session-scoped until EndSession. A saturated server yields ErrBusy
// (match with errors.Is).
func (c *Client) StartSession(tenant string, idle time.Duration) error {
	c.mu.Lock()
	if c.session != 0 {
		c.mu.Unlock()
		return errors.New("remote: client already has a session")
	}
	c.mu.Unlock()
	resp, err := c.call(&Request{Op: OpHello, Tenant: tenant, Slots: idle.Milliseconds()})
	if err != nil {
		return err
	}
	if resp.Session == 0 {
		return fmt.Errorf("%w: hello response carries no session", ErrMalformed)
	}
	c.mu.Lock()
	c.session = resp.Session
	c.mu.Unlock()
	return nil
}

// EndSession ends the server session, releasing its admission slot and
// checkpointing the stores it touched on a persistent server. The client
// reverts to sessionless operation.
func (c *Client) EndSession() error {
	c.mu.Lock()
	sid := c.session
	c.session = 0
	c.mu.Unlock()
	if sid == 0 {
		return nil
	}
	_, err := c.call(&Request{Op: OpBye, Session: sid})
	return err
}

// send writes one request on one connection under the per-request deadline,
// tightened by the bound context's deadline if that is sooner, and returns
// the pooled frame the reply is to be read into (receive). The remaining
// budget is declared to the server in DeadlineMS. Network-level failures
// come back wrapped as transient; a request over MaxFrame is
// ErrFrameTooLarge, which no retry of the same request can cure.
func (c *Client) send(ctx context.Context, conn net.Conn, req *Request) (*frame, error) {
	deadline := time.Now().Add(c.opts.requestTimeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if ms := time.Until(deadline).Milliseconds(); ms > 0 {
		req.DeadlineMS = ms
	} else {
		req.DeadlineMS = 1 // declare an (expired) deadline rather than none
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, &errTransient{err}
	}
	f := framePool.Get().(*frame)
	f.out = AppendFramedRequest(f.out[:0], req)
	if n, limit := uint64(len(f.out)-4), frameLimit(c.opts.MaxFrame); n > limit {
		// The server would drop the connection on the length prefix alone.
		framePool.Put(f)
		return nil, fmt.Errorf("remote: %s %q request: %w: %d > %d", req.Op, req.Store, ErrFrameTooLarge, n, limit)
	}
	if _, err := conn.Write(f.out); err != nil {
		framePool.Put(f)
		return nil, &errTransient{err}
	}
	return f, nil
}

// receive reads the reply to a sent request and releases the frame.
// Network-level failures come back wrapped as transient; a response over
// MaxFrame is ErrFrameTooLarge. The response's blocks are appended back to
// back to dst (nil: fresh memory) and resp.Blocks re-pointed at those
// copies; the extended dst is returned.
func (c *Client) receive(conn net.Conn, f *frame, req *Request, dst []byte) (*Response, []byte, error) {
	defer framePool.Put(f)
	payload, err := ReadFrameInto(conn, c.opts.MaxFrame, f.in[:0])
	if errors.Is(err, ErrFrameTooLarge) {
		return nil, nil, fmt.Errorf("remote: %s %q response: %w", req.Op, req.Store, err)
	}
	if err != nil {
		return nil, nil, &errTransient{err}
	}
	f.in = payload[:0]
	resp, err := decodeResponse(payload, true)
	if err != nil {
		return nil, nil, err
	}
	// The blocks are views into the pooled frame: copy them out, growing
	// dst at most once so the re-pointed views stay valid.
	total := 0
	for _, blk := range resp.Blocks {
		total += len(blk)
	}
	off := len(dst)
	dst = slices.Grow(dst, total)
	for k, blk := range resp.Blocks {
		dst = append(dst, blk...)
		resp.Blocks[k] = dst[off:len(dst):len(dst)]
		off = len(dst)
	}
	return resp, dst, nil
}

// call executes a request with bounded retry and exponential backoff on
// transient failures. Block writes are idempotent (absolute index, absolute
// contents), so retrying after an ambiguous network failure is safe. A
// bound context stops the retry loop at its deadline or cancellation —
// a hung server costs at most one I/O deadline, never an unbounded wait.
func (c *Client) call(req *Request) (*Response, error) {
	resp, _, err := c.callTo(req, nil)
	return resp, err
}

// callTo is call with the response's blocks appended to the caller-owned
// dst (see receive); on error the returned slice is nil.
func (c *Client) callTo(req *Request, dst []byte) (*Response, []byte, error) {
	ctx, a := c.start(req)
	return c.finish(ctx, req, dst, a)
}

// start is the first half of callTo: it sends the request on a pooled
// connection and returns at once; finish waits for the reply. Several
// started requests are in flight together, each on its own connection, which
// is how the shares of one round (storage.DoRound) overlap their latency
// without a goroutine. If the first attempt fails transiently on either side
// of the split, finish carries on with the retrying attempts.
func (c *Client) start(req *Request) (context.Context, attempt) {
	ctx := c.boundCtx()
	if req.Session == 0 && req.Op != OpHello {
		req.Session = c.sessionID()
	}
	// Stamp once, before any attempt: a retried request is the same logical
	// op, so it keeps its span ID and the server's ring holds one span per
	// op regardless of transport luck.
	c.stamp(req)
	if ctx.Err() != nil {
		return ctx, attempt{}
	}
	return ctx, c.begin(ctx, req)
}

// attempt is one try at a request, sent and awaiting its reply — or failed
// already, with err saying how (nil conn and nil err: never tried).
type attempt struct {
	conn net.Conn
	f    *frame
	sent time.Time
	err  error
}

// minOverlapWait is the reply wait above which a round's requests go out
// together (overlaps). A second request in flight means a second connection
// and a second server goroutine to wake; against a server that answers in
// tens of microseconds — loopback, in-memory — that costs more than the wait
// it hides (≈ 50 µs a round, measured with client and server sharing two
// cores), while any real link is far above it: the paper's LAN round trip is
// 500 µs.
const minOverlapWait = 250 * time.Microsecond

// waited folds one request's wait for its reply into the smoothed estimate
// (gain 1/8, as TCP smooths its round-trip time). A lost update between
// concurrent requests only delays the estimate.
func (c *Client) waited(d time.Duration) {
	if old := c.srtt.Load(); old != 0 {
		d = time.Duration(old) + (d-time.Duration(old))/8
	}
	c.srtt.Store(int64(d))
}

// overlaps reports whether the shares of a round are worth having in flight
// together: whether requests have lately waited long enough for their
// replies that hiding one wait behind another pays for the second
// connection. It is measured, not configured — overlap where there is
// latency, nothing where there is none.
func (c *Client) overlaps() bool { return time.Duration(c.srtt.Load()) >= minOverlapWait }

// begin makes one attempt's first half: a connection out of the pool and
// the request written to it.
func (c *Client) begin(ctx context.Context, req *Request) attempt {
	conn, err := c.get()
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			err = &errTransient{err}
		}
		return attempt{err: err}
	}
	f, err := c.send(ctx, conn, req)
	if err != nil {
		// The connection is in an unknown state mid-protocol: discard it.
		conn.Close()
		return attempt{err: err}
	}
	return attempt{conn: conn, f: f, sent: time.Now()}
}

// finish settles the first attempt and, while the failure is transient,
// makes the further ones with exponential backoff.
func (c *Client) finish(ctx context.Context, req *Request, dst []byte, a attempt) (*Response, []byte, error) {
	backoff := c.opts.retryBase()
	var lastErr error
	for n := 0; n <= c.opts.maxRetries(); n++ {
		if n > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		if a.conn == nil && a.err == nil {
			if err := ctx.Err(); err != nil {
				if lastErr != nil {
					return nil, nil, fmt.Errorf("remote: %s %q: %w (last error: %v)", req.Op, req.Store, err, lastErr)
				}
				return nil, nil, fmt.Errorf("remote: %s %q: %w", req.Op, req.Store, err)
			}
			a = c.begin(ctx, req)
		}
		var resp *Response
		var out []byte
		err := a.err
		if err == nil {
			if resp, out, err = c.receive(a.conn, a.f, req, dst); err != nil {
				a.conn.Close()
			} else {
				c.waited(time.Since(a.sent))
				c.put(a.conn)
			}
		}
		a = attempt{}
		if err != nil {
			var tr *errTransient
			if errors.As(err, &tr) {
				lastErr = err
				continue
			}
			return nil, nil, err
		}
		switch resp.Status {
		case StatusOK:
			return resp, out, nil
		case StatusTransient:
			lastErr = &errTransient{errors.New(resp.Msg)}
			continue
		case StatusBusy:
			return nil, nil, &RemoteError{Msg: resp.Msg, Busy: true}
		default:
			return nil, nil, &RemoteError{Msg: resp.Msg}
		}
	}
	return nil, nil, fmt.Errorf("remote: %s %q failed after %d attempts: %w",
		req.Op, req.Store, c.opts.maxRetries()+1, lastErr)
}

// FetchServerSpans retrieves the server's buffered spans for one trace
// (0 = everything still in the ring) — the pull half of distributed
// tracing, issued by Database.EndTrace after the join completes so the
// telemetry read never interleaves with the oblivious access schedule.
func (c *Client) FetchServerSpans(traceID uint64) ([]telemetry.ServerSpan, error) {
	resp, err := c.call(&Request{Op: OpTrace, TraceID: traceID})
	if err != nil {
		return nil, err
	}
	if len(resp.Blocks) != 1 {
		return nil, fmt.Errorf("%w: trace response carries %d payloads", ErrMalformed, len(resp.Blocks))
	}
	return ParseSpans(resp.Blocks[0])
}

// Create provisions a named store on the server and returns a handle to it.
func (c *Client) Create(name string, slots int64, blockSize int) (*RemoteStore, error) {
	resp, err := c.call(&Request{Op: OpCreate, Store: name, Slots: slots, BlockSize: int64(blockSize)})
	if err != nil {
		return nil, err
	}
	return &RemoteStore{c: c, name: name, slots: resp.Slots, blockSize: int(resp.BlockSize)}, nil
}

// Open attaches to an existing named store, fetching its geometry.
func (c *Client) Open(name string) (*RemoteStore, error) {
	resp, err := c.call(&Request{Op: OpStat, Store: name})
	if err != nil {
		return nil, err
	}
	return &RemoteStore{c: c, name: name, slots: resp.Slots, blockSize: int(resp.BlockSize)}, nil
}

// Opener returns a storage.Opener that provisions stores on the remote
// server — plug it into oram.PathConfig.OpenStore or table.Options to run
// the whole engine against this server.
func (c *Client) Opener() storage.Opener {
	return func(name string, slots int64, blockSize int) (storage.Store, error) {
		return c.Create(name, slots, blockSize)
	}
}

// RemoteStore is a client-side handle to one named store on the server. It
// implements storage.AppendExchangeStore: batch operations move a whole ORAM
// path in one round trip, and the append forms land the response's blocks in
// the caller's buffer straight from the pooled receive frame.
type RemoteStore struct {
	c         *Client
	name      string
	slots     int64
	blockSize int
}

var _ storage.AppendExchangeStore = (*RemoteStore)(nil)

// Name returns the server-side store name.
func (s *RemoteStore) Name() string { return s.name }

// Len implements storage.Store.
func (s *RemoteStore) Len() int64 { return s.slots }

// BlockSize implements storage.Store.
func (s *RemoteStore) BlockSize() int { return s.blockSize }

// Read implements storage.Store: one block, one round trip.
func (s *RemoteStore) Read(i int64) ([]byte, error) {
	resp, err := s.c.call(&Request{Op: OpRead, Store: s.name, Indices: []int64{i}})
	if err != nil {
		return nil, err
	}
	if len(resp.Blocks) != 1 {
		return nil, fmt.Errorf("%w: read returned %d blocks", ErrMalformed, len(resp.Blocks))
	}
	if m := s.c.opts.Meter; m != nil {
		m.CountBatch(s.name, storage.KindRead, []int64{i}, s.blockSize)
	}
	return resp.Blocks[0], nil
}

// Write implements storage.Store.
func (s *RemoteStore) Write(i int64, data []byte) error {
	_, err := s.c.call(&Request{Op: OpWrite, Store: s.name, Indices: []int64{i}, Blocks: [][]byte{data}})
	if err != nil {
		return err
	}
	if m := s.c.opts.Meter; m != nil {
		m.CountBatch(s.name, storage.KindWrite, []int64{i}, s.blockSize)
	}
	return nil
}

// ReadMany implements storage.BatchStore: ReadManyTo into fresh memory,
// carved.
func (s *RemoteStore) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := s.ReadManyTo(nil, idxs)
	return storage.Carve(flat, s.blockSize), err
}

// ReadManyTo implements storage.AppendStore: the whole batch is one request,
// hence one round trip — the fast path that lets Path-ORAM fetch a full
// tree path per round.
func (s *RemoteStore) ReadManyTo(dst []byte, idxs []int64) ([]byte, error) {
	return s.ExchangeTo(dst, nil, nil, idxs)
}

// checkBlocks refuses a response the caller could not carve at blockSize
// stride: the server is untrusted, and a short block would shift every
// block after it.
func (s *RemoteStore) checkBlocks(op string, resp *Response, want int) error {
	if len(resp.Blocks) != want {
		return fmt.Errorf("%w: %s returned %d of %d blocks", ErrMalformed, op, len(resp.Blocks), want)
	}
	for _, blk := range resp.Blocks {
		if len(blk) != s.blockSize {
			return fmt.Errorf("%w: %s returned a %d-byte block, want %d", ErrMalformed, op, len(blk), s.blockSize)
		}
	}
	return nil
}

// WriteMany implements storage.BatchStore.
func (s *RemoteStore) WriteMany(idxs []int64, data [][]byte) error {
	_, err := s.ExchangeTo(nil, idxs, data, nil)
	return err
}

// Exchange implements storage.ExchangeStore: ExchangeTo into fresh memory,
// carved.
func (s *RemoteStore) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	flat, err := s.ExchangeTo(nil, writeIdxs, writeData, readIdxs)
	return storage.Carve(flat, s.blockSize), err
}

// ExchangeTo implements storage.AppendExchangeStore: the writes and reads
// travel in one OpExchange request, and the server applies the writes before
// serving the reads. One-sided forms travel as the plain batch ops (and skip
// the wire entirely when empty), and a retried exchange is idempotent for
// the same reason batch writes are: absolute indices, absolute contents. It
// is the one implementation of every batch form of the store.
func (s *RemoteStore) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	var x exchange
	x.start(s, dst, writeIdxs, writeData, readIdxs)
	return x.finish()
}

// StartExchangeTo implements storage.RoundStarter: the request is on the
// wire when it returns, and finish collects the reply. Against a server that
// answers faster than a second request in flight is worth (Client.overlaps)
// it declines, and the round issues the share through ExchangeTo.
func (s *RemoteStore) StartExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) (finish func() ([]byte, error)) {
	if !s.c.overlaps() {
		return nil
	}
	x := new(exchange)
	x.start(s, dst, writeIdxs, writeData, readIdxs)
	return x.finish
}

// exchange is one ExchangeTo call between its request and its reply.
type exchange struct {
	s         *RemoteStore
	dst       []byte
	writeIdxs []int64
	readIdxs  []int64
	req       Request
	sent      bool  // req is on its way; otherwise err says whether that is a failure
	err       error // the call was malformed
	ctx       context.Context
	first     attempt
}

func (x *exchange) start(s *RemoteStore, dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) {
	x.s, x.dst, x.writeIdxs, x.readIdxs = s, dst, writeIdxs, readIdxs
	if len(writeIdxs) != len(writeData) {
		x.err = fmt.Errorf("remote: batch write of %d blocks with %d payloads", len(writeIdxs), len(writeData))
		return
	}
	switch {
	case len(writeIdxs) == 0 && len(readIdxs) == 0:
		return
	case len(readIdxs) == 0:
		x.req = Request{Op: OpWriteMany, Store: s.name, Indices: writeIdxs, Blocks: writeData}
	case len(writeIdxs) == 0:
		x.req = Request{Op: OpReadMany, Store: s.name, Indices: readIdxs}
	default:
		x.req = Request{Op: OpExchange, Store: s.name, Indices: readIdxs, WriteIndices: writeIdxs, Blocks: writeData}
	}
	x.sent = true
	x.ctx, x.first = s.c.start(&x.req)
}

func (x *exchange) finish() ([]byte, error) {
	if !x.sent {
		if x.err != nil {
			return nil, x.err
		}
		return x.dst, nil
	}
	resp, out, err := x.s.c.finish(x.ctx, &x.req, x.dst, x.first)
	if err != nil {
		return nil, err
	}
	if len(x.readIdxs) == 0 {
		out = x.dst
	} else if err := x.s.checkBlocks(x.req.Op.String(), resp, len(x.readIdxs)); err != nil {
		return nil, err
	}
	if m := x.s.c.opts.Meter; m != nil {
		m.CountExchange(x.s.name, x.writeIdxs, x.readIdxs, x.s.blockSize)
	}
	return out, nil
}
