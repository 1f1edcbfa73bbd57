package remote

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// within reports whether blk lies entirely inside frame's backing bytes.
func within(blk, frame []byte) bool {
	if len(blk) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(blk)))
	return p >= lo && p+uintptr(cap(blk)) <= lo+uintptr(len(frame))
}

// FuzzDecodeViewMatchesSlab decodes every input twice — blocks as views into
// the frame (the server's and client's mode) and blocks copied into a fresh
// slab (DecodeRequest / DecodeResponse) — and requires the two to agree on
// success, on every field and on every block byte for byte, and every view
// to lie inside the frame with no capacity beyond its own bytes. What the
// view decode accepts must also re-encode, views and all, to exactly the
// frame.
func FuzzDecodeViewMatchesSlab(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{Op: OpWriteMany, Store: "t", Indices: []int64{1, 2}, Blocks: [][]byte{[]byte("a"), []byte("bb")}}))
	f.Add(AppendRequest(nil, &Request{Op: OpExchange, Shares: []Share{
		{Store: "t", WriteIndices: []int64{1, 3}, Blocks: [][]byte{[]byte("x"), {}}, ReadIndices: []int64{0, 2}},
		{Store: "u", ReadIndices: []int64{1}, SpanID: 4},
	}, Session: 3, DeadlineMS: 50}))
	f.Add(AppendRequest(nil, &Request{Op: OpReadMany, Store: "t", Indices: []int64{4, 1}, TraceID: 7, SpanID: 1, Phase: "merge"}))
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Blocks: [][]byte{[]byte("blk"), []byte("other")}}))
	f.Add(AppendResponse(nil, &Response{Status: StatusError, Msg: "no"}))
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Shares: []ShareReply{
		{Blocks: [][]byte{[]byte("b")}}, {Status: StatusError, Msg: "no"}, {}}}))
	f.Add([]byte{wireVersion, byte(OpWriteMany), 0, 0, 0, 0, 2, 1, 'a', 200}) // second block overruns the frame
	// A request cut at each point where the optional-tail decoders once let
	// one end, and a version this side does not speak.
	short := AppendRequest(nil, &Request{Op: OpWriteMany, Store: "t", Indices: []int64{1}, Blocks: [][]byte{[]byte("a")}})
	for _, cut := range []int{cutPreExchange, cutSessionless, cutTraceless} {
		f.Add(short[:len(short)-cut])
	}
	f.Add(append([]byte{wireVersion + 1}, short[1:]...))

	dirty := AppendRequest(nil, &Request{Op: OpExchange, Store: "previous", Indices: []int64{9, 8, 7},
		Blocks: [][]byte{[]byte("old"), []byte("older")}, Slots: 3, BlockSize: 4, Tenant: "them", Session: 11, DeadlineMS: 12,
		TraceID: 13, SpanID: 14, Phase: "stale", Shares: []Share{
			{Store: "s0", WriteIndices: []int64{6, 5}, Blocks: [][]byte{[]byte("w")}, ReadIndices: []int64{4}, SpanID: 2},
			{Store: "s1", ReadIndices: []int64{3, 2}}, {Store: "s2"},
		}})

	dirtyResp := AppendResponse(nil, &Response{Status: StatusError, Msg: "stale", Blocks: [][]byte{[]byte("old")},
		Shares: []ShareReply{{Blocks: [][]byte{[]byte("a"), []byte("b")}}, {Status: StatusBusy, Msg: "m"}}, Slots: 1, BlockSize: 2, Session: 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame := bytes.Clone(data)
		check := func(kind string, view, slab [][]byte) {
			t.Helper()
			if len(view) != len(slab) {
				t.Fatalf("%s: %d views, %d slab blocks", kind, len(view), len(slab))
			}
			for k := range view {
				if !bytes.Equal(view[k], slab[k]) {
					t.Fatalf("%s block %d: view %q, slab %q", kind, k, view[k], slab[k])
				}
				if !within(view[k], frame) || cap(view[k]) != len(view[k]) {
					t.Fatalf("%s block %d: view escapes the frame (len %d cap %d)", kind, k, len(view[k]), cap(view[k]))
				}
				if within(slab[k], frame) && len(slab[k]) > 0 {
					t.Fatalf("%s block %d: slab mode aliases the frame", kind, k)
				}
			}
		}
		// The view decode lands in a Request that already served another
		// frame, as the server's per-connection Request does: every field
		// must be overwritten, only list capacity may survive.
		vreq, sreq := new(Request), new(Request)
		if err := decodeRequest(vreq, dirty, true); err != nil {
			t.Fatal(err)
		}
		verr := decodeRequest(vreq, frame, true)
		serr := decodeRequest(sreq, frame, false)
		if (verr == nil) != (serr == nil) {
			t.Fatalf("request: view mode err %v, slab mode err %v", verr, serr)
		}
		if verr == nil {
			if back := AppendRequest(nil, vreq); !bytes.Equal(back, frame) {
				t.Fatalf("request re-encodes to % x, was % x", back, frame)
			}
			check("request", vreq.Blocks, sreq.Blocks)
			if len(vreq.Shares) != len(sreq.Shares) {
				t.Fatalf("request: %d shares in view mode, %d in slab mode", len(vreq.Shares), len(sreq.Shares))
			}
			for k := range vreq.Shares {
				check("request share", vreq.Shares[k].Blocks, sreq.Shares[k].Blocks)
			}
			normRequest(vreq)
			normRequest(sreq)
			if !reflect.DeepEqual(vreq, sreq) {
				t.Fatalf("request fields differ: %+v vs %+v", vreq, sreq)
			}
		}
		vresp, sresp := new(Response), new(Response)
		if err := decodeResponse(vresp, dirtyResp, true); err != nil {
			t.Fatal(err)
		}
		verr = decodeResponse(vresp, frame, true)
		serr = decodeResponse(sresp, frame, false)
		if (verr == nil) != (serr == nil) {
			t.Fatalf("response: view mode err %v, slab mode err %v", verr, serr)
		}
		if verr == nil {
			if back := AppendResponse(nil, vresp); !bytes.Equal(back, frame) {
				t.Fatalf("response re-encodes to % x, was % x", back, frame)
			}
			check("response", vresp.Blocks, sresp.Blocks)
			if len(vresp.Shares) != len(sresp.Shares) {
				t.Fatalf("response: %d shares in view mode, %d in slab mode", len(vresp.Shares), len(sresp.Shares))
			}
			for k := range vresp.Shares {
				check("response share", vresp.Shares[k].Blocks, sresp.Shares[k].Blocks)
			}
			normResponse(vresp)
			normResponse(sresp)
			if !reflect.DeepEqual(vresp, sresp) {
				t.Fatalf("response fields differ: %+v vs %+v", vresp, sresp)
			}
		}
		if !bytes.Equal(frame, data) {
			t.Fatal("decoding wrote to the frame")
		}
	})
}

// normRequest makes a decoded request comparable across the two decodes:
// its blocks are compared apart, and a reused list decodes empty where a
// fresh one is nil.
func normRequest(req *Request) {
	req.Blocks = nil
	if len(req.Indices) == 0 {
		req.Indices = nil
	}
	if len(req.Shares) == 0 {
		req.Shares = nil
	}
	for k := range req.Shares {
		sh := &req.Shares[k]
		sh.Blocks = nil
		if len(sh.WriteIndices) == 0 {
			sh.WriteIndices = nil
		}
		if len(sh.ReadIndices) == 0 {
			sh.ReadIndices = nil
		}
	}
}

// normResponse is normRequest for responses.
func normResponse(resp *Response) {
	resp.Blocks = nil
	if len(resp.Shares) == 0 {
		resp.Shares = nil
	}
	for k := range resp.Shares {
		resp.Shares[k].Blocks = nil
	}
}

// TestServerConsumesViewsBeforeNextFrame: request payloads reach the hosted
// store as views into the connection's frame buffer, which the next request
// on the same connection overwrites. Alternating writes of different blocks
// over one pooled connection must each be stored intact.
func TestServerConsumesViewsBeforeNextFrame(t *testing.T) {
	_, c := startServer(t, ServerOptions{}, ClientOptions{PoolSize: 1})
	const bs = 64
	st, err := c.Create("views", 8, bs)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for round := 0; round < 16; round++ {
		idxs := []int64{int64(round % 8), int64((round + 3) % 8)}
		data := [][]byte{bytes.Repeat([]byte{byte(round)}, bs), bytes.Repeat([]byte{byte(100 + round)}, bs)}
		if buf, err = st.ExchangeTo(buf[:0], idxs, data, idxs); err != nil {
			t.Fatal(err)
		}
		if got := storage.Carve(buf, bs); !bytes.Equal(got[0], data[0]) || !bytes.Equal(got[1], data[1]) {
			t.Fatalf("round %d: exchange read back %v %v", round, got[0][0], got[1][0])
		}
		one, err := st.Read(idxs[1])
		if err != nil || !bytes.Equal(one, data[1]) {
			t.Fatalf("round %d: slot %d holds %v (%v)", round, idxs[1], one[0], err)
		}
	}
}

// wrongSize serves batch reads whose blocks are one byte short.
type wrongSize struct{ storage.ExchangeStore }

func (w wrongSize) ReadMany(idxs []int64) ([][]byte, error) {
	blocks, err := w.ExchangeStore.ReadMany(idxs)
	for k := range blocks {
		blocks[k] = blocks[k][:len(blocks[k])-1]
	}
	return blocks, err
}

// TestAppendReadRejectsMissizedBlocks: the server is untrusted; a response
// whose blocks are not BlockSize long must fail rather than shift every
// block the caller carves after it. (The server's own read helper refuses
// such a store first; either refusal is an error, which is the point.)
func TestAppendReadRejectsMissizedBlocks(t *testing.T) {
	_, c := startServer(t, ServerOptions{
		OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
			return wrongSize{storage.NewMemStore(name, slots, blockSize, nil)}, nil
		},
	}, ClientOptions{})
	st, err := c.Create("short", 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.ExchangeTo(nil, nil, nil, []int64{0, 1}); err == nil || got != nil {
		t.Fatalf("mis-sized batch read accepted: %d bytes, %v", len(got), err)
	}
	resp := &Response{Blocks: [][]byte{make([]byte, 31), make([]byte, 33)}}
	if got, err := st.take(nil, resp.Blocks, 2); err == nil || got != nil {
		t.Fatal("take accepted 31- and 33-byte blocks for a 32-byte store")
	}
}

// TestLoopbackReadPathAllocs is the allocation guard for the wire: one
// path's read-only ExchangeTo over loopback TCP, client and server in this process,
// stays within the framed codec's 7 allocations per round trip, and none of
// them is block-sized on either side — the path's blocks travel socket →
// pooled frame → caller's buffer and store → connection scratch → frame.
func TestLoopbackReadPathAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, c := startServer(t, ServerOptions{}, ClientOptions{})
	const bs = 4096 + 32
	path := []int64{0, 1, 3, 7, 15, 31, 63}
	st, err := c.Create("allocs", 128, bs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := st.ExchangeTo(nil, nil, nil, path) // warm both sides' buffers
	if err != nil {
		t.Fatal(err)
	}
	allocs, perRun := storetest.AllocsAndBytes(300, func() {
		if buf, err = st.ExchangeTo(buf[:0], nil, nil, path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("loopback read-only ExchangeTo of %d blocks: %v allocs, %d bytes per round trip", len(path), allocs, perRun)
	if allocs > 7 {
		t.Errorf("loopback read-only ExchangeTo: %v allocs per round trip, want <= 7", allocs)
	}
	if perRun >= bs {
		t.Errorf("loopback read-only ExchangeTo allocates %d bytes per round trip: something block-sized (%d) is still allocated", perRun, bs)
	}
	if len(buf) != len(path)*bs {
		t.Fatalf("read %d bytes, want %d", len(buf), len(path)*bs)
	}
}
