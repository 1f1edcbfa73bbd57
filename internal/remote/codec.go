// Package remote is the networked block-store transport: a length-prefixed
// binary wire protocol, a TCP server that hosts named storage.Store
// instances, and a client that implements storage.AppendExchangeStore so
// the oblivious join engine runs unchanged against a remote block server.
//
// The paper's deployment (Section 9.1) separates the trusted client from an
// untrusted storage server and argues costs in network round trips. The
// protocol therefore exposes batch reads and writes as first-class
// operations: a Path-ORAM access over this transport is one round trip —
// an exchange that writes back the path fetched before and downloads this
// one's (DESIGN.md §2.9) — instead of the O(log n) single-block trips a
// naive transport would pay.
//
// The server is untrusted by construction: it only ever sees sealed bucket
// ciphertexts and physical indices, exactly the view the obliviousness
// definition grants the adversary.
//
// Typical use: start a Server (or cmd/ojoinserver) over any set of named
// stores, then Dial a client and pass Client.Opener as the table/ORAM
// store factory. All write RPCs address fixed physical slots and are
// therefore idempotent, so the client transparently retries transport
// errors and StatusTransient responses with exponential backoff
// (ClientOptions.MaxRetries); a retried batch is metered as one network
// round, on success. The server's deterministic FaultModel (Shaper) injects
// latency and transient faults for tests and WAN experiments. See DESIGN.md
// §2.6 for the batching semantics and failure model in full.
//
// A round (storage.DoRound) travels as one OpExchange request per server:
// its payload is the list of the round's shares bound for that server —
// store, write indices, write blocks, read indices — which the server
// applies in order, and the reply carries each share's status and blocks,
// so a share the server refuses fails alone. It is the only way blocks
// travel: a call on one RemoteStore, a single-block Read included, is a
// frame of one share, whichever side of it is empty. Beside OpExchange the
// server serves only the control ops (create, stat, hello, bye, trace);
// OpReadMany and OpWriteMany survive as the names of a share's shape in its
// counters, histograms and spans.
//
// Block memory on the hot path (DESIGN.md §2.14, storage package comment):
// nothing block-sized is allocated per request on either side. The server
// decodes each request in place into a per-connection Request whose shares'
// Blocks are views into the connection's frame buffer, and serves their
// reads from a per-connection scratch the reply's blocks point into; both
// are valid only until the response has been encoded, which is why hosted
// stores must consume write payloads before returning and a handler must
// never retain a Request, its index lists or its Blocks. The client decodes
// a response's blocks as views into a pooled frame and copies them into the
// caller's buffer (RemoteStore.ExchangeTo) before the frame returns to the
// pool. DecodeRequest and DecodeResponse, the exported entry points,
// always copy blocks out of the payload.
//
// There is one codec and one grammar. Messages are encoded by appending
// (AppendRequest / AppendResponse, or the AppendFramed forms that add the
// length prefix) and frames read with ReadFrameInto. Every payload leads
// with the wire-version byte and then carries every field of its message,
// always, in one fixed order; a field that does not apply is zero (empty
// list, empty string, 0). Nothing is optional, so every accepted payload
// re-encodes to exactly itself, and a peer speaking anything else gets
// ErrMalformed naming the version it sent.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// wireVersion is the first byte of every frame payload, request or
// response. Only this one is spoken: an unknown version is ErrMalformed. It
// sits above every op and status code, so a payload of the unversioned
// grammars this one replaced — which led with its op or status — fails the
// version check instead of being misparsed.
const wireVersion = 0x21

// DefaultMaxFrame bounds a single wire frame (64 MiB), comfortably above
// any realistic batched ORAM path while preventing a malformed length
// prefix from provoking an enormous allocation.
const DefaultMaxFrame = 64 << 20

// maxStoreName bounds store-name lengths on the wire.
const maxStoreName = 4096

// maxShareMsg bounds a share's error message in a round reply: the server
// cuts a longer one, so a client can bound the reply to a frame before it
// sends it.
const maxShareMsg = 512

// maxPhase bounds trace phase labels on the wire (generous over
// telemetry.MaxPhaseLen so the codec stays decoupled from the registry).
const maxPhase = 128

// Op identifies a request type.
type Op uint8

// Wire operations. OpExchange is the one op that moves blocks. OpCreate
// provisions a named store server-side (the client computes ORAM tree
// geometry and allocates accordingly); OpStat fetches the geometry of an
// existing store. Codes 1 and 2 are unassigned.
const (
	// OpReadMany and OpWriteMany name the shapes of an exchange share —
	// nothing to write, nothing to read — in the server's counters,
	// histograms and spans. The codec still carries them as requests with
	// Indices and Blocks, but the server serves no block traffic outside
	// OpExchange and refuses them.
	OpReadMany Op = iota + 3
	OpWriteMany
	OpStat
	OpCreate
	// OpExchange is the block op: Shares lists one round's shares for this
	// server, each a batch of writes applied before a batch of reads, all
	// in one round trip — every store call's request, from a single-block
	// read to a Path-ORAM write-back riding the next path download and the
	// trees of a lockstep round sharing it. The reply's Shares answers them
	// one for one.
	OpExchange
	// OpHello opens a client session: Tenant names the namespace every
	// store the session touches is qualified into, Slots carries the
	// requested idle timeout in milliseconds (0 = server default). The
	// response echoes the granted timeout in Slots and the session ID in
	// Session. A saturated server answers StatusBusy.
	OpHello
	// OpBye ends the session named by Session, releasing its admission
	// slot and checkpointing the stores it touched on a persistent server.
	OpBye
	// OpTrace fetches recent server spans for the trace named by TraceID
	// (0 = all buffered) as a JSON batch in Response.Blocks[0]. It is a
	// pure telemetry read: it addresses no store, touches no block, and is
	// excluded from per-store counters and access traces, so fetching a
	// trace cannot perturb the trace being fetched.
	OpTrace
)

func (o Op) String() string {
	switch o {
	case OpReadMany:
		return "read-many"
	case OpWriteMany:
		return "write-many"
	case OpStat:
		return "stat"
	case OpCreate:
		return "create"
	case OpExchange:
		return "exchange"
	case OpHello:
		return "hello"
	case OpBye:
		return "bye"
	case OpTrace:
		return "trace"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status classifies a response.
type Status uint8

// Response statuses. StatusTransient marks failures worth retrying
// (injected faults, shedding); StatusError marks permanent ones
// (out-of-range index, unknown store, malformed request); StatusBusy is
// the admission-control rejection — the session table is full, and the
// client should surface a typed error rather than hammer the retry path.
const (
	StatusOK Status = iota
	StatusError
	StatusTransient
	StatusBusy
)

// Request is one client→server operation.
type Request struct {
	Op    Op
	Store string
	// Indices and Blocks, aligned, are a batch outside any share: a codec
	// field the server serves no op with (block traffic travels in
	// Shares), always empty on the wire between Client and Server.
	Indices []int64
	Blocks  [][]byte
	// Slots and BlockSize carry store geometry for OpCreate.
	Slots     int64
	BlockSize int64
	// Shares carries the shares of an OpExchange, in the order the server
	// applies them; empty for every other op, and an OpExchange names its
	// stores here, not in Store.
	Shares []Share
	// Tenant carries the namespace for OpHello; empty otherwise.
	Tenant string
	// Session is the session this request executes under (0 = none). The
	// server qualifies Store into the session's tenant namespace.
	Session int64
	// DeadlineMS is the client's remaining per-request deadline budget in
	// milliseconds at send time (0 = none). The server refuses to start
	// work it already knows cannot finish inside the budget — injected
	// WAN latency included — so a saturated or shaped server fails fast
	// instead of wedging the session.
	DeadlineMS int64
	// TraceID and SpanID carry the distributed-trace context (0 = no
	// trace): the server records a ServerSpan per traced op, and OpTrace
	// fetches them back by TraceID.
	TraceID uint64
	SpanID  uint64
	// Phase is the client phase label that caused this op. Labels are
	// restricted to the declared-public alphabet
	// (telemetry.DeclarePhases), so the annotation is a function of
	// public data only.
	Phase string
}

// blocks counts the block indices a request names, its shares' included.
func (req *Request) blocks() int {
	n := len(req.Indices)
	for k := range req.Shares {
		n += len(req.Shares[k].WriteIndices) + len(req.Shares[k].ReadIndices)
	}
	return n
}

// Share is one store's part of an OpExchange: writes the server applies
// before it serves the reads, like a batch write and a batch read in one.
type Share struct {
	Store string
	// WriteIndices and Blocks are the writes, aligned.
	WriteIndices []int64
	Blocks       [][]byte
	ReadIndices  []int64
	// SpanID is the share's trace span (0 = untraced): the server records
	// one span per share, under the request's TraceID and Phase.
	SpanID uint64
}

// ShareReply answers one share of an OpExchange.
type ShareReply struct {
	Status Status
	// Msg is the error message when Status != StatusOK, at most
	// maxShareMsg bytes.
	Msg string
	// Blocks carries the share's reads.
	Blocks [][]byte
}

// Response is one server→client reply.
type Response struct {
	Status Status
	// Msg is the error message when Status != StatusOK.
	Msg string
	// Blocks carries read results.
	Blocks [][]byte
	// Shares answers an OpExchange's shares one for one; empty otherwise.
	Shares []ShareReply
	// Slots and BlockSize carry store geometry for OpStat/OpCreate replies
	// (and the granted idle timeout in milliseconds for OpHello).
	Slots     int64
	BlockSize int64
	// Session carries the session ID granted by OpHello; 0 otherwise.
	Session int64
}

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("remote: frame exceeds size limit")
	ErrMalformed     = errors.New("remote: malformed message")
)

// AppendFramedRequest appends req's complete wire frame — length prefix
// included — to b, so one conn.Write sends the whole frame (one syscall, no
// header-array allocation). The sender checks the frame against its limit
// (frameLimit) before writing it.
func AppendFramedRequest(b []byte, req *Request) []byte {
	return fixupFrame(AppendRequest(append(b, 0, 0, 0, 0), req), len(b))
}

// AppendFramedResponse is AppendFramedRequest for responses.
func AppendFramedResponse(b []byte, resp *Response) []byte {
	return fixupFrame(AppendResponse(append(b, 0, 0, 0, 0), resp), len(b))
}

// fixupFrame back-patches the 4-byte length prefix reserved at off.
func fixupFrame(b []byte, off int) []byte {
	binary.BigEndian.PutUint32(b[off:off+4], uint32(len(b)-off-4))
	return b
}

// frameLimit resolves a MaxFrame option: 0 means DefaultMaxFrame, and no
// limit exceeds what the 4-byte length prefix can carry.
func frameLimit(max int) uint64 {
	if max <= 0 {
		return DefaultMaxFrame
	}
	return min(uint64(max), math.MaxUint32)
}

// ReadFrameInto reads one length-prefixed payload into buf's capacity,
// rejecting frames larger than max (0 means DefaultMaxFrame) before
// allocating anything and allocating only when the frame outgrows buf — the
// steady-state zero-allocation read path. The returned slice aliases buf
// (when it fit), so callers reusing a buffer must finish consuming one frame
// before reading the next.
func ReadFrameInto(r io.Reader, max int, buf []byte) ([]byte, error) {
	limit := frameLimit(max)
	// The length prefix is read into buf's own spare capacity so the
	// steady state allocates nothing (a stack [4]byte would escape through
	// the io.Reader interface and cost one heap allocation per frame).
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if uint64(n) > limit {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, limit)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendUvarint / reader helpers ---------------------------------------------

type reader struct{ b []byte }

// head opens a payload: it checks the wire-version byte — the one place a
// version is looked at — and returns the kind byte after it, a request's op
// or a response's status.
func (r *reader) head(what string) (byte, error) {
	if len(r.b) < 2 {
		return 0, fmt.Errorf("%w: %d-byte %s", ErrMalformed, len(r.b), what)
	}
	if r.b[0] != wireVersion {
		return 0, fmt.Errorf("%w: wire version %d, this side speaks %d", ErrMalformed, r.b[0], wireVersion)
	}
	kind := r.b[1]
	r.b = r.b[2:]
	return kind, nil
}

// uvarint decodes one minimally encoded varint; a padded encoding is
// refused, so a value has exactly one spelling on the wire.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		return 0, fmt.Errorf("%w: bad varint", ErrMalformed)
	}
	r.b = r.b[n:]
	return v, nil
}

// length decodes a uvarint that counts items of at least itemSize remaining
// bytes each, so a forged count can never force an allocation larger than
// the frame that carried it.
func (r *reader) length(itemSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if itemSize < 1 {
		itemSize = 1
	}
	if v > uint64(len(r.b)/itemSize) {
		return 0, fmt.Errorf("%w: count %d exceeds payload", ErrMalformed, v)
	}
	return int(v), nil
}

// str decodes a length-prefixed string of at most max bytes (0 = no bound
// beyond the payload itself); what names the field in the error.
func (r *reader) str(max int, what string) (string, error) {
	return r.strAs("", max, what)
}

// strAs is str into the previous value of the field: when the bytes spell
// old again — the same store in the same place of the next frame — old is
// kept and nothing is allocated.
func (r *reader) strAs(old string, max int, what string) (string, error) {
	n, err := r.length(1)
	if err != nil {
		return "", err
	}
	if max > 0 && n > max {
		return "", fmt.Errorf("%w: %s of %d bytes", ErrMalformed, what, n)
	}
	out := old
	if string(r.b[:n]) != old {
		out = string(r.b[:n])
	}
	r.b = r.b[n:]
	return out, nil
}

// shares decodes an OpExchange's share list into dst's capacity, reusing
// the lists of the shares it held before (see decodeRequest).
func (r *reader) shares(dst []Share, view bool) ([]Share, error) {
	// A share is at least five bytes: four empty fields and a span ID.
	n, err := r.length(5)
	if err != nil || n == 0 {
		return dst, err
	}
	dst = slices.Grow(dst, n)[:n]
	for k := range dst {
		sh := &dst[k]
		if sh.Store, err = r.strAs(sh.Store, maxStoreName, "store name"); err != nil {
			return nil, err
		}
		if sh.WriteIndices, err = r.int64s(sh.WriteIndices[:0]); err != nil {
			return nil, err
		}
		if sh.Blocks, err = r.blocks(sh.Blocks[:0], view); err != nil {
			return nil, err
		}
		if sh.ReadIndices, err = r.int64s(sh.ReadIndices[:0]); err != nil {
			return nil, err
		}
		if sh.SpanID, err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// blocks decodes a counted list of length-prefixed blocks into dst's
// capacity. With view set the blocks alias the payload (capacity-limited,
// so an append to one can never reach the bytes after it) and live exactly
// as long as the frame buffer that holds it; otherwise they are copied into
// one fresh slab of their total size — one allocation instead of one per
// block, the blocks sharing a backing array, so retaining any one of them
// retains the batch, which is how ORAM path payloads live anyway.
func (r *reader) blocks(dst [][]byte, view bool) ([][]byte, error) {
	n, err := r.length(1)
	if err != nil || n == 0 {
		return dst, err
	}
	dst = slices.Grow(dst, n)[:n]
	total := 0
	for k := range dst {
		size, err := r.length(1)
		if err != nil {
			return nil, err
		}
		dst[k] = r.b[:size:size]
		r.b = r.b[size:]
		total += size
	}
	if !view {
		slab := make([]byte, 0, total)
		for k, blk := range dst {
			slab = append(slab, blk...)
			dst[k] = slab[len(slab)-len(blk) : len(slab) : len(slab)]
		}
	}
	return dst, nil
}

// int64s decodes a counted list of indices into dst's capacity.
func (r *reader) int64s(dst []int64) ([]int64, error) {
	n, err := r.length(1)
	if err != nil || n == 0 {
		return dst, err
	}
	dst = slices.Grow(dst, n)[:n]
	for k := range dst {
		if dst[k], err = r.int64(); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (r *reader) int64() (int64, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<62 {
		return 0, fmt.Errorf("%w: integer %d out of range", ErrMalformed, v)
	}
	return int64(v), nil
}

// AppendRequest serializes a request, appending to b. The hot path
// (client.roundTrip) passes a reused frame buffer so steady-state encoding
// allocates nothing.
func AppendRequest(b []byte, req *Request) []byte {
	b = append(b, wireVersion, byte(req.Op))
	b = binary.AppendUvarint(b, uint64(len(req.Store)))
	b = append(b, req.Store...)
	b = binary.AppendUvarint(b, uint64(req.Slots))
	b = binary.AppendUvarint(b, uint64(req.BlockSize))
	b = appendIndices(b, req.Indices)
	b = appendBlocks(b, req.Blocks)
	b = binary.AppendUvarint(b, uint64(len(req.Shares)))
	for k := range req.Shares {
		sh := &req.Shares[k]
		b = binary.AppendUvarint(b, uint64(len(sh.Store)))
		b = append(b, sh.Store...)
		b = appendIndices(b, sh.WriteIndices)
		b = appendBlocks(b, sh.Blocks)
		b = appendIndices(b, sh.ReadIndices)
		b = binary.AppendUvarint(b, sh.SpanID)
	}
	b = binary.AppendUvarint(b, uint64(len(req.Tenant)))
	b = append(b, req.Tenant...)
	b = binary.AppendUvarint(b, uint64(req.Session))
	b = binary.AppendUvarint(b, uint64(req.DeadlineMS))
	b = binary.AppendUvarint(b, req.TraceID)
	b = binary.AppendUvarint(b, req.SpanID)
	b = binary.AppendUvarint(b, uint64(len(req.Phase)))
	return append(b, req.Phase...)
}

// appendIndices appends a counted index list.
func appendIndices(b []byte, idxs []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(idxs)))
	for _, i := range idxs {
		b = binary.AppendUvarint(b, uint64(i))
	}
	return b
}

// appendBlocks appends a counted list of length-prefixed blocks.
func appendBlocks(b []byte, blocks [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(blocks)))
	for _, blk := range blocks {
		b = binary.AppendUvarint(b, uint64(len(blk)))
		b = append(b, blk...)
	}
	return b
}

// DecodeRequest parses a frame payload into a Request that shares no memory
// with it. Malformed input yields an error, never a panic or an allocation
// beyond the frame size.
func DecodeRequest(payload []byte) (*Request, error) {
	req := new(Request)
	if err := decodeRequest(req, payload, false); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeRequest is DecodeRequest into a caller-owned Request, overwriting
// every field and reusing the capacity of its index, block and share lists
// (a share's own lists included), with
// the choice of how Blocks are held: with view set they alias payload — the
// server's mode, where the frame buffer outlives the handler and every store
// consumes write payloads before returning (storage package comment), so
// nothing block-sized is copied or allocated between the socket and the
// store. Names and indices are copied either way. On error req is garbage.
func decodeRequest(req *Request, payload []byte, view bool) error {
	r := reader{b: payload}
	kind, err := r.head("request")
	if err != nil {
		return err
	}
	op := Op(kind)
	if op < OpReadMany || op > OpTrace {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, op)
	}
	// The names keep their old values until decoded, so a name the frame
	// repeats is not allocated again (strAs).
	*req = Request{Op: op, Store: req.Store, Tenant: req.Tenant, Phase: req.Phase,
		Indices: req.Indices[:0], Blocks: req.Blocks[:0], Shares: req.Shares[:0]}
	if req.Store, err = r.strAs(req.Store, maxStoreName, "store name"); err != nil {
		return err
	}
	if req.Slots, err = r.int64(); err != nil {
		return err
	}
	if req.BlockSize, err = r.int64(); err != nil {
		return err
	}
	if req.Indices, err = r.int64s(req.Indices); err != nil {
		return err
	}
	if req.Blocks, err = r.blocks(req.Blocks, view); err != nil {
		return err
	}
	if req.Shares, err = r.shares(req.Shares, view); err != nil {
		return err
	}
	if req.Tenant, err = r.strAs(req.Tenant, maxStoreName, "tenant name"); err != nil {
		return err
	}
	if req.Session, err = r.int64(); err != nil {
		return err
	}
	if req.DeadlineMS, err = r.int64(); err != nil {
		return err
	}
	if req.TraceID, err = r.uvarint(); err != nil {
		return err
	}
	if req.SpanID, err = r.uvarint(); err != nil {
		return err
	}
	if req.Phase, err = r.strAs(req.Phase, maxPhase, "phase label"); err != nil {
		return err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b))
	}
	return nil
}

// AppendResponse serializes a response, appending to b; the server passes
// its per-connection frame buffer.
func AppendResponse(b []byte, resp *Response) []byte {
	b = append(b, wireVersion, byte(resp.Status))
	b = binary.AppendUvarint(b, uint64(len(resp.Msg)))
	b = append(b, resp.Msg...)
	b = appendBlocks(b, resp.Blocks)
	b = binary.AppendUvarint(b, uint64(len(resp.Shares)))
	for k := range resp.Shares {
		sr := &resp.Shares[k]
		b = append(b, byte(sr.Status))
		b = binary.AppendUvarint(b, uint64(len(sr.Msg)))
		b = append(b, sr.Msg...)
		b = appendBlocks(b, sr.Blocks)
	}
	b = binary.AppendUvarint(b, uint64(resp.Slots))
	b = binary.AppendUvarint(b, uint64(resp.BlockSize))
	return binary.AppendUvarint(b, uint64(resp.Session))
}

// DecodeResponse parses a frame payload into a Response that shares no
// memory with it.
func DecodeResponse(payload []byte) (*Response, error) {
	resp := new(Response)
	if err := decodeResponse(resp, payload, false); err != nil {
		return nil, err
	}
	return resp, nil
}

// decodeResponse is DecodeResponse into a caller-owned Response, reusing the
// capacity of its lists as decodeRequest does, with Blocks optionally held
// as views into payload — the client's mode, which then moves them from its
// pooled frame into the caller's buffer. On error resp is garbage.
func decodeResponse(resp *Response, payload []byte, view bool) error {
	r := &reader{b: payload}
	kind, err := r.head("response")
	if err != nil {
		return err
	}
	*resp = Response{Status: Status(kind), Blocks: resp.Blocks[:0], Shares: resp.Shares[:0]}
	if resp.Status > StatusBusy {
		return fmt.Errorf("%w: unknown status %d", ErrMalformed, resp.Status)
	}
	if resp.Msg, err = r.str(0, "message"); err != nil {
		return err
	}
	if resp.Blocks, err = r.blocks(resp.Blocks, view); err != nil {
		return err
	}
	if resp.Shares, err = r.shareReplies(resp.Shares, view); err != nil {
		return err
	}
	if resp.Slots, err = r.int64(); err != nil {
		return err
	}
	if resp.BlockSize, err = r.int64(); err != nil {
		return err
	}
	if resp.Session, err = r.int64(); err != nil {
		return err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b))
	}
	return nil
}

// shareReplies decodes a round reply's share list into dst's capacity,
// reusing the block lists of the replies it held before.
func (r *reader) shareReplies(dst []ShareReply, view bool) ([]ShareReply, error) {
	// A share reply is at least three bytes: status, message, blocks.
	n, err := r.length(3)
	if err != nil || n == 0 {
		return dst, err
	}
	dst = slices.Grow(dst, n)[:n]
	for k := range dst {
		sr := &dst[k]
		if len(r.b) == 0 {
			return nil, fmt.Errorf("%w: share reply cut short", ErrMalformed)
		}
		if sr.Status = Status(r.b[0]); sr.Status > StatusBusy {
			return nil, fmt.Errorf("%w: unknown share status %d", ErrMalformed, sr.Status)
		}
		r.b = r.b[1:]
		if sr.Msg, err = r.str(maxShareMsg, "share message"); err != nil {
			return nil, err
		}
		if sr.Blocks, err = r.blocks(sr.Blocks[:0], view); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
