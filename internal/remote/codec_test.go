package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpReadMany, Store: "t1.data", Indices: []int64{7}},
		{Op: OpWriteMany, Store: "t1.data", Indices: []int64{3}, Blocks: [][]byte{[]byte("payload")}},
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5, 2, 9}},
		{Op: OpWriteMany, Store: "x", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("a"), []byte("bb")}},
		{Op: OpStat, Store: "idx.k"},
		{Op: OpCreate, Store: "fresh", Slots: 128, BlockSize: 4096},
		// A round: each share's writes (aligned with its Blocks) and reads,
		// one-sided shares included.
		{Op: OpExchange, Shares: []Share{
			{Store: "t1.data", WriteIndices: []int64{1, 2}, Blocks: [][]byte{[]byte("wa"), []byte("wb")}, ReadIndices: []int64{0, 3, 7}},
			{Store: "t1.idx.k", ReadIndices: []int64{4}},
			{Store: "t2.data", WriteIndices: []int64{6}, Blocks: [][]byte{[]byte("w")}},
		}},
		{Op: OpExchange, Shares: []Share{{Store: "t1.data", WriteIndices: []int64{9}, Blocks: [][]byte{[]byte("solo")}, ReadIndices: []int64{5}}}},
		// Session handshake and session-scoped traffic.
		{Op: OpHello, Tenant: "acme", Slots: 30_000},
		{Op: OpHello, Tenant: "weird/tenant:name"},
		{Op: OpBye, Session: 17},
		{Op: OpReadMany, Store: "t1.data", Indices: []int64{7}, Session: 3, DeadlineMS: 2500},
		{Op: OpExchange, Shares: []Share{{Store: "t1.data", WriteIndices: []int64{1}, Blocks: [][]byte{[]byte("w")},
			ReadIndices: []int64{0, 3}}}, Session: 9},
		// Distributed-trace context.
		{Op: OpReadMany, Store: "t1.data", Indices: []int64{7}, TraceID: 0xDEAD, SpanID: 3, Phase: "join.smj"},
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5}, Session: 4, DeadlineMS: 900,
			TraceID: 1, SpanID: 99, Phase: "sort.runs"},
		{Op: OpExchange, Shares: []Share{
			{Store: "t1.data", WriteIndices: []int64{1}, Blocks: [][]byte{[]byte("w")}, ReadIndices: []int64{0, 3}, SpanID: 1},
			{Store: "t2.data", ReadIndices: []int64{2}, SpanID: 2},
		}, TraceID: 7, Phase: "oram.flush"},
		{Op: OpWriteMany, Store: "x", Indices: []int64{1}, Blocks: [][]byte{[]byte("a")},
			TraceID: 12345678901234567890, SpanID: 2}, // no phase label
		{Op: OpTrace, TraceID: 55},
		{Op: OpTrace}, // fetch everything buffered
	}
	for _, req := range cases {
		got, err := DecodeRequest(AppendRequest(nil, req))
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: round trip %+v != %+v", req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{Status: StatusOK, Blocks: [][]byte{[]byte("blk")}},
		{Status: StatusOK, Slots: 64, BlockSize: 4144},
		{Status: StatusError, Msg: "remote: unknown store"},
		{Status: StatusTransient, Msg: "injected"},
		{Status: StatusBusy, Msg: "remote: session table full"},
		{Status: StatusOK, Slots: 60_000, Session: 42},
		// A round's reply: a share answered, a share refused, a write.
		{Status: StatusOK, Shares: []ShareReply{
			{Blocks: [][]byte{[]byte("b1"), []byte("b2")}},
			{Status: StatusError, Msg: "remote: unknown store \"x\""},
			{},
		}},
	}
	for i, resp := range cases {
		got, err := DecodeResponse(AppendResponse(nil, resp))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, resp)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	req := &Request{Op: OpWriteMany, Store: "hello", Indices: []int64{3}, Blocks: [][]byte{[]byte("frames")}}
	stream := bytes.NewReader(AppendFramedRequest(nil, req))
	payload, err := ReadFrameInto(stream, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(payload)
	if err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("got %+v, %v", got, err)
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left after the frame", stream.Len())
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := ReadFrameInto(bytes.NewReader(hdr[:]), 1024, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	whole := AppendFramedResponse(nil, &Response{Status: StatusError, Msg: "truncate me"})
	for cut := 0; cut < len(whole); cut++ {
		if _, err := ReadFrameInto(bytes.NewReader(whole[:cut]), 0, nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
}

// The request grammar ends with seven fields that are a single zero byte
// each when unused: Shares count | tenant length, session, deadline |
// trace ID, span ID, phase length. The optional-tail decoders this grammar
// replaced accepted a payload cut before any of the three groups.
const (
	cutPreExchange = 7 // ends after Blocks
	cutSessionless = 6 // ends after Shares
	cutTraceless   = 3 // ends after the session section
)

func mustBeMalformed(t *testing.T, what string, payload []byte) {
	t.Helper()
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrMalformed) {
		t.Errorf("%s: err = %v, want ErrMalformed", what, err)
	}
}

// TestDecodeRequestLegacyFormat: the short form a peer from before
// OpExchange sent — a request that ends after Blocks, with no Shares field
// — is not part of the grammar, and neither is a payload of the
// unversioned grammars, which led with the op: that one is refused at the
// version byte, by name.
func TestDecodeRequestLegacyFormat(t *testing.T) {
	cases := []*Request{
		{Op: OpReadMany, Store: "t1.data", Indices: []int64{7}},
		{Op: OpWriteMany, Store: "t1.data", Indices: []int64{3}, Blocks: [][]byte{[]byte("payload")}},
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5, 2, 9}},
		{Op: OpWriteMany, Store: "x", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("a"), []byte("bb")}},
		{Op: OpStat, Store: "idx.k"},
		{Op: OpCreate, Store: "fresh", Slots: 128, BlockSize: 4096},
	}
	for _, req := range cases {
		b := AppendRequest(nil, req)
		if !bytes.Equal(b[len(b)-cutPreExchange:], make([]byte, cutPreExchange)) {
			t.Fatalf("%s: payload does not end with seven zero fields: % x", req.Op, b)
		}
		mustBeMalformed(t, req.Op.String()+" cut after Blocks", b[:len(b)-cutPreExchange])
		_, err := DecodeRequest(b[1:]) // no version byte: the op leads
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), fmt.Sprintf("wire version %d", req.Op)) {
			t.Errorf("%s without a version byte: err = %v, want ErrMalformed naming version %d", req.Op, err, req.Op)
		}
	}
}

// TestSessionlessWireCompat: sessionless operation stays, its second
// encoding does not. A request that uses no session carries the session
// section as explicit zeros, a response that grants none an explicit zero
// session ID, and the forms that used to leave them out are malformed.
func TestSessionlessWireCompat(t *testing.T) {
	req := &Request{Op: OpReadMany, Store: "x", Indices: []int64{0, 5}}
	b := AppendRequest(nil, req)
	got, err := DecodeRequest(b)
	if err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("sessionless round trip: %+v, %v", got, err)
	}
	withSession := *req
	withSession.Session = 5
	if sb := AppendRequest(nil, &withSession); len(sb) != len(b) {
		t.Fatalf("a session ID changed the frame length: %d vs %d bytes", len(sb), len(b))
	}
	mustBeMalformed(t, "request cut after Shares", b[:len(b)-cutSessionless])

	resp := &Response{Status: StatusOK, Slots: 8, BlockSize: 32}
	rb := AppendResponse(nil, resp)
	if back, err := DecodeResponse(rb); err != nil || !reflect.DeepEqual(back, resp) {
		t.Fatalf("sessionless response round trip: %+v, %v", back, err)
	}
	if rb[len(rb)-1] != 0 {
		t.Fatalf("response does not end with a zero session ID: % x", rb)
	}
	if _, err := DecodeResponse(rb[:len(rb)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("response without a session field: err = %v, want ErrMalformed", err)
	}
}

// TestTracelessWireCompat: an untraced request carries the trace section as
// explicit zeros, so arming a trace changes those bytes and nothing before
// them. Zero means absent, field by field: a zero trace ID beside a span ID
// is an untraced request like any other, not a special case.
func TestTracelessWireCompat(t *testing.T) {
	cases := []*Request{
		{Op: OpReadMany, Store: "x", Indices: []int64{0, 5}},
		{Op: OpReadMany, Store: "t1.data", Indices: []int64{7}, Session: 3, DeadlineMS: 2500},
		{Op: OpHello, Tenant: "acme", Slots: 30_000},
		{Op: OpReadMany, Store: "s", Indices: []int64{1}, Session: 2, SpanID: 5},
	}
	for _, req := range cases {
		b := AppendRequest(nil, req)
		traced := *req
		traced.TraceID, traced.SpanID, traced.Phase = 9, 1, "load"
		tb := AppendRequest(nil, &traced)
		if len(tb) != len(b)+len("load") {
			t.Fatalf("%s: arming a trace grew the frame by %d bytes, want the phase label's %d", req.Op, len(tb)-len(b), len("load"))
		}
		if !bytes.HasPrefix(tb, b[:len(b)-cutTraceless]) {
			t.Fatalf("%s: arming a trace changed bytes before the trace section", req.Op)
		}
		got, err := DecodeRequest(b)
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: untraced round trip: %+v, %v", req.Op, got, err)
		}
	}
}

// TestDecodeRequestLegacyTraceless: a request cut after the session section
// — what a peer from before tracing sent — is not part of the grammar.
func TestDecodeRequestLegacyTraceless(t *testing.T) {
	b := AppendRequest(nil, &Request{Op: OpReadMany, Store: "t1.data", Indices: []int64{7}, Session: 3, DeadlineMS: 100})
	mustBeMalformed(t, "request cut after the session section", b[:len(b)-cutTraceless])
}

func TestDecodeRequestTraceMalformed(t *testing.T) {
	base := AppendRequest(nil, &Request{Op: OpReadMany, Store: "s", Indices: []int64{1},
		Session: 2, TraceID: 9, SpanID: 1, Phase: "load"})
	longPhase := AppendRequest(nil, &Request{Op: OpReadMany, Store: "s", Indices: []int64{1},
		TraceID: 9, SpanID: 1, Phase: string(bytes.Repeat([]byte{'p'}, 300))})
	mustBeMalformed(t, "truncated trace section", base[:len(base)-2])
	mustBeMalformed(t, "over-long phase", longPhase)
}

func TestDecodeRequestMalformed(t *testing.T) {
	base := AppendRequest(nil, &Request{Op: OpWriteMany, Store: "s", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("aa"), []byte("bb")}})
	padded := bytes.Clone(base)
	padded = append(padded[:len(padded)-1], 0x80, 0x00) // phase length 0, spelled in two bytes
	cases := map[string][]byte{
		"empty":          {},
		"version only":   {wireVersion},
		"wrong version":  append([]byte{wireVersion + 1}, base[1:]...),
		"unknown op":     {wireVersion, 0xFF},
		"zero op":        {wireVersion, 0x00},
		"trailing bytes": append(bytes.Clone(base), 0x01),
		"truncated":      base[:len(base)-3],
		"padded varint":  padded,
		// A count claiming more indices than the payload could possibly hold
		// must be rejected before allocation.
		"forged count": {wireVersion, byte(OpReadMany), 1, 's', 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, payload := range cases {
		mustBeMalformed(t, name, payload)
	}
}

func TestDecodeResponseMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"wrong version":  append([]byte{wireVersion + 1}, AppendResponse(nil, &Response{})[1:]...),
		"bad status":     {wireVersion, 0x09},
		"truncated msg":  {wireVersion, byte(StatusError), 0x10, 'x'},
		"trailing bytes": append(AppendResponse(nil, &Response{}), 0xAA),
	}
	for name, payload := range cases {
		if _, err := DecodeResponse(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the frame reader and both
// message decoders: none may panic, any allocation they perform must be
// bounded by the input length (enforced indirectly — a forged count that
// over-allocates would OOM the fuzzer), and the grammar is closed — whatever
// either decoder accepts re-encodes to exactly the bytes it was given.
func FuzzDecodeFrame(f *testing.F) {
	add := func(req *Request) { f.Add(AppendRequest(nil, req)) }
	add(&Request{Op: OpReadMany, Store: "t", Indices: []int64{1}})
	add(&Request{Op: OpWriteMany, Store: "t", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("a"), []byte("b")}})
	add(&Request{Op: OpCreate, Store: "t", Slots: 8, BlockSize: 64})
	add(&Request{Op: OpExchange, Shares: []Share{
		{Store: "t", WriteIndices: []int64{1, 3}, Blocks: [][]byte{[]byte("x"), []byte("y")}, ReadIndices: []int64{0, 2}},
		{Store: "u", ReadIndices: []int64{5}},
	}})
	// The three short forms the optional-tail decoders accepted, and a
	// version this side does not speak: all malformed now.
	plain := AppendRequest(nil, &Request{Op: OpReadMany, Store: "t", Indices: []int64{4, 1}})
	skewed := append([]byte{wireVersion + 1}, plain[1:]...)
	for _, short := range [][]byte{plain[:len(plain)-cutPreExchange], plain[:len(plain)-cutSessionless], plain[:len(plain)-cutTraceless], skewed} {
		if _, err := DecodeRequest(short); !errors.Is(err, ErrMalformed) {
			f.Fatalf("seed % x: err = %v, want ErrMalformed", short, err)
		}
		f.Add(short)
	}
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Blocks: [][]byte{[]byte("blk")}}))
	f.Add(AppendResponse(nil, &Response{Status: StatusTransient, Msg: "retry"}))
	// Sessions: handshake, session-scoped op, busy reply, granted session.
	add(&Request{Op: OpHello, Tenant: "acme", Slots: 30_000})
	add(&Request{Op: OpReadMany, Store: "t", Indices: []int64{1}, Session: 5, DeadlineMS: 900})
	f.Add(AppendResponse(nil, &Response{Status: StatusBusy, Msg: "full"}))
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Slots: 60_000, Session: 7}))
	// Tracing: traced op, trace fetch, traced exchange.
	add(&Request{Op: OpReadMany, Store: "t", Indices: []int64{1},
		Session: 5, TraceID: 9, SpanID: 2, Phase: "join.smj"})
	add(&Request{Op: OpTrace, TraceID: 9})
	add(&Request{Op: OpExchange, Shares: []Share{{Store: "t", WriteIndices: []int64{1}, Blocks: [][]byte{[]byte("x")},
		ReadIndices: []int64{0}, SpanID: 1}}, TraceID: 1, Phase: "oram.flush"})
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Shares: []ShareReply{
		{Blocks: [][]byte{[]byte("blk")}}, {Status: StatusError, Msg: "no"}}}))
	f.Add(AppendFramedRequest(nil, &Request{Op: OpStat, Store: "t"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := ReadFrameInto(bytes.NewReader(data), 1<<20, nil); err == nil {
			_, _ = DecodeRequest(payload)
			_, _ = DecodeResponse(payload)
		}
		if req, err := DecodeRequest(data); err == nil {
			if back := AppendRequest(nil, req); !bytes.Equal(back, data) {
				t.Fatalf("request re-encodes to % x, was % x", back, data)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			if back := AppendResponse(nil, resp); !bytes.Equal(back, data) {
				t.Fatalf("response re-encodes to % x, was % x", back, data)
			}
		}
	})
}

// TestAppendCodecMatchesEncode pins the append codec to the grammar, spelled
// out byte by byte — the version byte, then every field in its fixed place,
// zeros included — and to itself when appending after an existing prefix
// (the reused-buffer case).
func TestAppendCodecMatchesEncode(t *testing.T) {
	reqs := []struct {
		req  *Request
		want []byte
	}{
		{&Request{Op: OpWriteMany, Store: "t1", Indices: []int64{0, 300}, Blocks: [][]byte{[]byte("wa"), []byte("wb")},
			Session: 9, DeadlineMS: 500, TraceID: 3, SpanID: 8, Phase: "oram.flush"},
			[]byte{wireVersion, byte(OpWriteMany),
				2, 't', '1', // store
				0, 0, // slots, block size
				2, 0, 0xAC, 0x02, // indices
				2, 2, 'w', 'a', 2, 'w', 'b', // blocks
				0,                // shares
				0, 9, 0xF4, 0x03, // tenant, session, deadline
				3, 8, 10, 'o', 'r', 'a', 'm', '.', 'f', 'l', 'u', 's', 'h'}}, // trace ID, span ID, phase
		{&Request{Op: OpExchange, Shares: []Share{
			{Store: "a", WriteIndices: []int64{1}, Blocks: [][]byte{[]byte("w")}, ReadIndices: []int64{0, 300}, SpanID: 5},
			{Store: "b", ReadIndices: []int64{2}, SpanID: 6},
		}, Session: 9, TraceID: 3, Phase: "m"},
			[]byte{wireVersion, byte(OpExchange),
				0, 0, 0, 0, 0, // store, slots, block size, indices, blocks
				2,                                            // shares
				1, 'a', 1, 1, 1, 1, 'w', 2, 0, 0xAC, 0x02, 5, // store, writes, blocks, reads, span ID
				1, 'b', 0, 0, 1, 2, 6,
				0, 9, 0, // tenant, session, deadline
				3, 0, 1, 'm'}}, // trace ID, span ID, phase
	}
	for _, c := range reqs {
		if got := AppendRequest(nil, c.req); !bytes.Equal(got, c.want) {
			t.Fatalf("AppendRequest(nil) = % x, want % x", got, c.want)
		}
		if got := AppendRequest([]byte("prefix"), c.req); !bytes.Equal(got, append([]byte("prefix"), c.want...)) {
			t.Fatal("AppendRequest after a prefix diverges")
		}
	}
	resps := []struct {
		resp *Response
		want []byte
	}{
		{&Response{Status: StatusOK, Blocks: [][]byte{[]byte("blk"), []byte("b2")}, Slots: 7, Session: 42},
			[]byte{wireVersion, byte(StatusOK),
				0,                                // message
				2, 3, 'b', 'l', 'k', 2, 'b', '2', // blocks
				0,          // shares
				7, 0, 42}}, // slots, block size, session
		{&Response{Status: StatusOK, Shares: []ShareReply{{Blocks: [][]byte{[]byte("bk")}}, {Status: StatusError, Msg: "no"}}},
			[]byte{wireVersion, byte(StatusOK),
				0, 0, // message, blocks
				2,                    // shares
				0, 0, 1, 2, 'b', 'k', // status, message, blocks
				byte(StatusError), 2, 'n', 'o', 0,
				0, 0, 0}}, // slots, block size, session
	}
	for _, c := range resps {
		if got := AppendResponse(nil, c.resp); !bytes.Equal(got, c.want) {
			t.Fatalf("AppendResponse(nil) = % x, want % x", got, c.want)
		}
		if got := AppendResponse([]byte("prefix"), c.resp); !bytes.Equal(got, append([]byte("prefix"), c.want...)) {
			t.Fatal("AppendResponse after a prefix diverges")
		}
	}
}

// TestAppendCodecReusesCapacity checks the hot-path property the client and
// server frame buffers rely on: encoding into a buffer with enough capacity
// allocates nothing.
func TestAppendCodecReusesCapacity(t *testing.T) {
	req := &Request{Op: OpWriteMany, Store: "t1.data", Indices: []int64{1, 2},
		Blocks: [][]byte{make([]byte, 4096), make([]byte, 4096)}}
	buf := make([]byte, 0, len(AppendRequest(nil, req))+64)
	if n := testing.AllocsPerRun(50, func() {
		buf = AppendRequest(buf[:0], req)
	}); n != 0 {
		t.Fatalf("AppendRequest into sized buffer: %.1f allocs/op, want 0", n)
	}
	resp := &Response{Blocks: [][]byte{make([]byte, 4096)}}
	rbuf := make([]byte, 0, len(AppendResponse(nil, resp))+64)
	if n := testing.AllocsPerRun(50, func() {
		rbuf = AppendResponse(rbuf[:0], resp)
	}); n != 0 {
		t.Fatalf("AppendResponse into sized buffer: %.1f allocs/op, want 0", n)
	}
}

// TestReadFrameIntoReuse checks that a sized buffer is reused (same backing
// array) and an undersized one grows without corrupting the payload.
func TestReadFrameIntoReuse(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	framed := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	framed = append(framed, payload...)
	stream := bytes.NewBuffer(bytes.Repeat(framed, 3))
	buf := make([]byte, 0, 512)
	for i := 0; i < 3; i++ {
		got, err := ReadFrameInto(stream, 0, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame %d corrupted", i)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatalf("frame %d did not reuse the buffer", i)
		}
	}
	got, err := ReadFrameInto(bytes.NewReader(framed), 0, make([]byte, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("grown read corrupted the payload")
	}
}

// TestAppendFramedMatchesWriteFrame checks the single-write framed-append
// path (what client.roundTrip and server.serveConn send) puts the 4-byte
// big-endian payload length and then exactly the appended payload on the
// wire, and that a slab-decoded batch round-trips the payload contents
// intact.
func TestAppendFramedMatchesWriteFrame(t *testing.T) {
	frame := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	req := &Request{Op: OpWriteMany, Store: "t1.data", Indices: []int64{4, 9},
		Blocks: [][]byte{[]byte("payload-a"), []byte("payload-b")}}
	want := frame(AppendRequest(nil, req))
	if got := AppendFramedRequest(nil, req); !bytes.Equal(got, want) {
		t.Fatalf("AppendFramedRequest = %x, want %x", got, want)
	}
	if got := AppendFramedRequest([]byte("pre"), req); !bytes.Equal(got, append([]byte("pre"), want...)) {
		t.Fatal("AppendFramedRequest after prefix diverges")
	}
	resp := &Response{Status: StatusOK, Blocks: [][]byte{[]byte("ra"), []byte("rbb")}, Slots: 3}
	framed := AppendFramedResponse(nil, resp)
	if wantR := frame(AppendResponse(nil, resp)); !bytes.Equal(framed, wantR) {
		t.Fatalf("AppendFramedResponse = %x, want %x", framed, wantR)
	}
	payload, err := ReadFrameInto(bytes.NewReader(framed), DefaultMaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Blocks) != 2 || string(back.Blocks[0]) != "ra" || string(back.Blocks[1]) != "rbb" {
		t.Fatalf("slab decode corrupted blocks: %q", back.Blocks)
	}
	// The slab must be immune to later appends through one carved block.
	_ = append(back.Blocks[0], 'X')
	if string(back.Blocks[1]) != "rbb" {
		t.Fatalf("append through block 0 corrupted block 1: %q", back.Blocks[1])
	}
}
