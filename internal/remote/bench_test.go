package remote

import (
	"bytes"
	"testing"
	"time"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

func benchSealer(b *testing.B) *xcrypto.Sealer {
	b.Helper()
	s, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkCodecRequestRoundTrip(b *testing.B) {
	blocks := make([][]byte, 16)
	idxs := make([]int64, 16)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, 4096)
		idxs[i] = int64(i * 3)
	}
	req := &Request{Op: OpWriteMany, Store: "bench", Indices: idxs, Blocks: blocks}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRequest(buf[:0], req)
		if _, err := DecodeRequest(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchORAM builds a 1024-block Path-ORAM over the given opener.
func benchORAM(b *testing.B, open storage.Opener) *oram.PathORAM {
	b.Helper()
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name:        "bench.oram",
		Capacity:    1024,
		PayloadSize: 4096,
		Sealer:      benchSealer(b),
		Rand:        oram.NewSeededSource(1),
		OpenStore:   open,
	})
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, 1024)
	for i := range payloads {
		payloads[i] = make([]byte, 4096)
	}
	if err := o.BulkLoad(payloads); err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkPathORAMAccessLocal is the in-process baseline for the remote
// benchmark below: same tree, no wire.
func BenchmarkPathORAMAccessLocal(b *testing.B) {
	o := benchORAM(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Read(uint64(i % 1024)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathORAMAccessRemote measures a full batched path access over a
// loopback TCP server: one round trip per access. Compare against
// BenchmarkPathORAMAccessLocal for pure transport overhead, and add
// -latency via the Shaper to reproduce WAN-shaped curves.
func BenchmarkPathORAMAccessRemote(b *testing.B) {
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(ClientOptions{Addr: addr.String(), RequestTimeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	o := benchORAM(b, c.Opener())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Read(uint64(i % 1024)); err != nil {
			b.Fatal(err)
		}
	}
}
