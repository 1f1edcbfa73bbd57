package remote

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"slices"
	"strings"
	"sync"
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
	// A round's shares that together would overrun it go as several
	// requests.
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

// frame is a reusable request/response buffer pair and the response decoded
// from it. One frame serves one round trip; pooling them makes steady-state
// encoding, frame reads and decoding allocation-free. The response's blocks
// are views into in: the caller moves them into its own buffer before
// releasing the frame, so nothing returned to a caller aliases pooled memory.
type frame struct {
	out, in []byte
	resp    Response
}

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
// trace is active: a fresh span ID per store op — per share of an
// OpExchange, so the server records one span per share. Control ops
// (hello/bye/trace) stay unstamped: they are not part of the data-access
// schedule a span tree describes.
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
	req.Phase = f.Phase()
	if req.Op != OpExchange {
		req.SpanID = f.NextSpanID()
	}
	for k := range req.Shares {
		req.Shares[k].SpanID = f.NextSpanID()
	}
}

// Dial connects to a block server, verifying reachability with one pooled
// connection up front.
func Dial(opts ClientOptions) (*Client, error) {
	c := &Client{opts: opts}
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", opts.Addr, err)
	}
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
		return nil, fmt.Errorf("remote: %s request: %w: %d > %d", req.what(), ErrFrameTooLarge, n, limit)
	}
	if _, err := conn.Write(f.out); err != nil {
		framePool.Put(f)
		return nil, &errTransient{err}
	}
	return f, nil
}

// receive reads the reply to a sent request into the frame and decodes it
// there, blocks as views into the frame. Network-level failures come back
// wrapped as transient; a response over MaxFrame is ErrFrameTooLarge.
func (c *Client) receive(conn net.Conn, f *frame, req *Request) error {
	payload, err := ReadFrameInto(conn, c.opts.MaxFrame, f.in[:0])
	if errors.Is(err, ErrFrameTooLarge) {
		return fmt.Errorf("remote: %s response: %w", req.what(), err)
	}
	if err != nil {
		return &errTransient{err}
	}
	f.in = payload[:0]
	return decodeResponse(&f.resp, payload, true)
}

// what names a request in errors: its op and store, or its share count.
func (req *Request) what() string {
	switch {
	case req.Op != OpExchange:
		return fmt.Sprintf("%s %q", req.Op, req.Store)
	case len(req.Shares) == 1:
		return fmt.Sprintf("exchange %q", req.Shares[0].Store)
	}
	return fmt.Sprintf("exchange of %d shares", len(req.Shares))
}

// call executes a request with bounded retry and exponential backoff on
// transient failures, and returns the reply in memory of its own. Block
// writes are idempotent (absolute index, absolute contents), so retrying
// after an ambiguous network failure is safe. A bound context stops the
// retry loop at its deadline or cancellation — a hung server costs at most
// one I/O deadline, never an unbounded wait.
func (c *Client) call(req *Request) (*Response, error) {
	ctx, a := c.start(req)
	f, err := c.await(ctx, req, a)
	if err != nil {
		return nil, err
	}
	defer framePool.Put(f)
	resp := f.resp
	resp.Blocks, resp.Shares = nil, nil
	for _, blk := range f.resp.Blocks {
		resp.Blocks = append(resp.Blocks, slices.Clone(blk))
	}
	return &resp, nil
}

// start sends a request on a pooled connection and returns at once; await
// collects the reply. If the first attempt fails transiently, await carries
// on with the retrying attempts.
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
	err  error
}

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
	return attempt{conn: conn, f: f}
}

// await settles the first attempt and, while the failure is transient,
// makes the further ones with exponential backoff. It returns the frame
// holding the StatusOK reply; the caller releases it to framePool once it
// has taken the blocks out.
func (c *Client) await(ctx context.Context, req *Request, a attempt) (*frame, error) {
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
					return nil, fmt.Errorf("remote: %s: %w (last error: %v)", req.what(), err, lastErr)
				}
				return nil, fmt.Errorf("remote: %s: %w", req.what(), err)
			}
			a = c.begin(ctx, req)
		}
		f, err := a.f, a.err
		if err == nil {
			if err = c.receive(a.conn, f, req); err != nil {
				a.conn.Close()
				framePool.Put(f)
			} else {
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
			return nil, err
		}
		status, msg := f.resp.Status, f.resp.Msg
		if status == StatusOK {
			return f, nil
		}
		framePool.Put(f)
		switch status {
		case StatusTransient:
			lastErr = &errTransient{errors.New(msg)}
			continue
		case StatusBusy:
			return nil, &RemoteError{Msg: msg, Busy: true}
		default:
			return nil, &RemoteError{Msg: msg}
		}
	}
	return nil, fmt.Errorf("remote: %s failed after %d attempts: %w", req.what(), c.opts.maxRetries()+1, lastErr)
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
// the caller's buffer straight from the pooled receive frame. It is
// storage.Carried: in a round (storage.DoRound) its share travels in one
// request with the shares of every other store of its client.
type RemoteStore struct {
	c         *Client
	name      string
	slots     int64
	blockSize int
}

var (
	_ storage.AppendExchangeStore = (*RemoteStore)(nil)
	_ storage.Carried             = (*RemoteStore)(nil)
)

// Name returns the server-side store name.
func (s *RemoteStore) Name() string { return s.name }

// Len implements storage.Store.
func (s *RemoteStore) Len() int64 { return s.slots }

// BlockSize implements storage.Store.
func (s *RemoteStore) BlockSize() int { return s.blockSize }

// Carrier implements storage.Carried: the store's requests travel on its
// client.
func (s *RemoteStore) Carrier() storage.Carrier { return s.c }

// Read implements storage.Store: an exchange of one read.
func (s *RemoteStore) Read(i int64) ([]byte, error) {
	return s.ExchangeTo(nil, nil, nil, []int64{i})
}

// Write implements storage.Store: an exchange of one write.
func (s *RemoteStore) Write(i int64, data []byte) error {
	_, err := s.ExchangeTo(nil, []int64{i}, [][]byte{data}, nil)
	return err
}

// ReadMany implements storage.ExchangeStore: an exchange with nothing to
// write, into fresh memory, carved.
func (s *RemoteStore) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := s.ExchangeTo(nil, nil, nil, idxs)
	return storage.Carve(flat, s.blockSize), err
}

// WriteMany implements storage.ExchangeStore: an exchange with nothing to
// read.
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

// ExchangeTo implements storage.AppendExchangeStore, and is the one block
// implementation of the store: a frame of its own carrying one OpExchange
// of one share, whose writes the server applies before it serves the reads
// — one round trip, whichever side is empty. An empty exchange skips the
// wire. A retried exchange is idempotent: absolute indices, absolute
// contents.
func (s *RemoteStore) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) != len(writeData) {
		return nil, fmt.Errorf("remote: exchange of %d write blocks with %d payloads", len(writeIdxs), len(writeData))
	}
	if len(writeIdxs) == 0 && len(readIdxs) == 0 {
		return dst, nil
	}
	rf := s.c.openFrame()
	op := &rf.solo
	*op = storage.RoundOp{Store: s, Dst: dst, WriteIdxs: writeIdxs, WriteData: writeData, ReadIdxs: readIdxs}
	rf.Add(op)
	rf.Send()
	rf.settle()
	out, err := op.Out, op.Err
	rf.release()
	return out, err
}

// take checks a share reply's want blocks and appends them to dst, growing
// it at most once. The server is untrusted: a reply the caller could not
// carve at blockSize stride — a short block would shift every block after
// it — is refused.
func (s *RemoteStore) take(dst []byte, blocks [][]byte, want int) ([]byte, error) {
	if len(blocks) != want {
		return nil, fmt.Errorf("%w: exchange returned %d of %d blocks", ErrMalformed, len(blocks), want)
	}
	for _, blk := range blocks {
		if len(blk) != s.blockSize {
			return nil, fmt.Errorf("%w: exchange returned a %d-byte block, want %d", ErrMalformed, len(blk), s.blockSize)
		}
	}
	dst = slices.Grow(dst, want*s.blockSize)
	for _, blk := range blocks {
		dst = append(dst, blk...)
	}
	return dst, nil
}

// roundFrame is a client's part of a round (storage.Frame): its shares
// travel as one OpExchange request and settle from the one reply. Shares
// that together would overrun MaxFrame in either direction go as several
// requests, cut at share boundaries, each on a connection of its own — so no
// reply waits behind a request still being written. A share that would
// overrun it alone, or has nothing to send, goes through ExchangeTo when it
// is settled, as it would outside a round.
type roundFrame struct {
	c   *Client
	ctx context.Context
	// ops are the shares in round order — every one on a *RemoteStore of c
	// — and part[k] the request ops[k] travels in, -1 for ExchangeTo.
	ops   []*storage.RoundOp
	part  []int
	parts []framePart
	next  int // the next share to settle
	// solo is the share of an ExchangeTo call, a frame of its own.
	solo storage.RoundOp
}

// framePart is one request of a frame.
type framePart struct {
	req      Request
	sent     attempt
	received bool
}

var roundPool = sync.Pool{New: func() any { return new(roundFrame) }}

// OpenFrame implements storage.Carrier.
func (c *Client) OpenFrame() storage.Frame { return c.openFrame() }

func (c *Client) openFrame() *roundFrame {
	rf := roundPool.Get().(*roundFrame)
	rf.c = c
	return rf
}

// Add implements storage.Frame.
func (rf *roundFrame) Add(op *storage.RoundOp) { rf.ops = append(rf.ops, op) }

// frameOverhead bounds what a request or a reply spends outside its shares:
// version, op or status, the empty fields, session, deadline and the trace
// section with its phase label.
const frameOverhead = 64 + maxPhase

// Send implements storage.Frame.
func (rf *roundFrame) Send() {
	budget := max(frameLimit(rf.c.opts.MaxFrame), frameOverhead) - frameOverhead
	var reqBytes, replyBytes uint64
	for _, op := range rf.ops {
		s := op.Store.(*RemoteStore)
		if len(op.WriteIdxs) != len(op.WriteData) || len(op.WriteIdxs)+len(op.ReadIdxs) == 0 {
			rf.part = append(rf.part, -1)
			continue
		}
		sh := Share{Store: s.name, WriteIndices: op.WriteIdxs, Blocks: op.WriteData, ReadIndices: op.ReadIdxs}
		q, p := sh.size(), s.replySize(len(op.ReadIdxs))
		if len(rf.ops) > 1 && (q > budget || p > budget) {
			rf.part = append(rf.part, -1)
			continue
		}
		if len(rf.parts) == 0 || reqBytes+q > budget || replyBytes+p > budget {
			rf.parts = slices.Grow(rf.parts, 1)[:len(rf.parts)+1]
			rf.parts[len(rf.parts)-1] = framePart{req: Request{Op: OpExchange, Shares: rf.parts[len(rf.parts)-1].req.Shares[:0]}}
			reqBytes, replyBytes = 0, 0
		}
		part := &rf.parts[len(rf.parts)-1]
		part.req.Shares = append(part.req.Shares, sh)
		reqBytes, replyBytes = reqBytes+q, replyBytes+p
		rf.part = append(rf.part, len(rf.parts)-1)
	}
	for i := range rf.parts {
		rf.ctx, rf.parts[i].sent = rf.c.start(&rf.parts[i].req)
	}
}

// size is the share's encoded length in a request.
func (sh *Share) size() uint64 {
	n := uvarintLen(uint64(len(sh.Store))) + len(sh.Store)
	n += uvarintLen(uint64(len(sh.WriteIndices))) + uvarintLen(uint64(len(sh.Blocks))) + uvarintLen(uint64(len(sh.ReadIndices)))
	for _, i := range sh.WriteIndices {
		n += uvarintLen(uint64(i))
	}
	for _, blk := range sh.Blocks {
		n += uvarintLen(uint64(len(blk))) + len(blk)
	}
	for _, i := range sh.ReadIndices {
		n += uvarintLen(uint64(i))
	}
	return uint64(n) + 10 // the span ID, stamped later: at most 10 bytes
}

// replySize bounds the encoded length of a share's reply: its blocks, or an
// error message of at most maxShareMsg bytes.
func (s *RemoteStore) replySize(reads int) uint64 {
	blocks := reads * (uvarintLen(uint64(s.blockSize)) + s.blockSize)
	return uint64(1 + uvarintLen(maxShareMsg) + max(blocks, maxShareMsg) + uvarintLen(uint64(reads)))
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Settle implements storage.Frame.
func (rf *roundFrame) Settle() {
	rf.settle()
	if rf.next == len(rf.ops) {
		rf.release()
	}
}

// settle settles the next share, receiving its request's reply first if
// that has not come yet, and meters it on success — share by share, so the
// meter sees the round's order.
func (rf *roundFrame) settle() {
	op := rf.ops[rf.next]
	p := rf.part[rf.next]
	rf.next++
	s := op.Store.(*RemoteStore)
	if p < 0 {
		op.Out, op.Err = s.ExchangeTo(op.Dst, op.WriteIdxs, op.WriteData, op.ReadIdxs)
		return
	}
	if !rf.parts[p].received {
		rf.receive(p)
	}
	if m := s.c.opts.Meter; m != nil && op.Err == nil {
		m.CountExchange(s.name, op.WriteIdxs, op.ReadIdxs, s.blockSize)
	}
}

// receive awaits request p's reply — resending the whole request on a
// transient failure — and fills in the Out and Err of every share it
// carried: a refused share fails alone, a failed request fails them all.
func (rf *roundFrame) receive(p int) {
	part := &rf.parts[p]
	part.received = true
	f, err := rf.c.await(rf.ctx, &part.req, part.sent)
	part.sent = attempt{}
	if err == nil {
		defer framePool.Put(f)
		if len(f.resp.Shares) != len(part.req.Shares) {
			err = fmt.Errorf("%w: exchange of %d shares answered %d", ErrMalformed, len(part.req.Shares), len(f.resp.Shares))
		}
	}
	j := 0
	for k, op := range rf.ops {
		if rf.part[k] != p {
			continue
		}
		if err != nil {
			op.Out, op.Err = nil, err
			continue
		}
		if sr := &f.resp.Shares[j]; sr.Status != StatusOK {
			op.Out, op.Err = nil, &RemoteError{Msg: sr.Msg, Busy: sr.Status == StatusBusy}
		} else {
			op.Out, op.Err = op.Store.(*RemoteStore).take(op.Dst, sr.Blocks, len(op.ReadIdxs))
		}
		j++
	}
}

// release returns the frame to the pool, keeping its lists' capacity but
// nothing of the round.
func (rf *roundFrame) release() {
	for i := range rf.parts {
		clear(rf.parts[i].req.Shares)
	}
	clear(rf.ops)
	*rf = roundFrame{ops: rf.ops[:0], part: rf.part[:0], parts: rf.parts[:0]}
	roundPool.Put(rf)
}
