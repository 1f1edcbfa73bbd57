package diskstore

import (
	"bytes"
	"errors"
	"testing"
)

// buildRecord derives a bounded, well-formed record from fuzz inputs: raw is
// chunked into blockSize blocks (zero-padded) and idxSeed walks the slot
// space deterministically.
func buildRecord(seq uint64, raw []byte, idxSeed uint64, blockSize int, slots int64) ([]int64, [][]byte) {
	count := len(raw)/blockSize + 1
	if count > 8 {
		count = 8
	}
	idxs := make([]int64, count)
	data := make([][]byte, count)
	for k := 0; k < count; k++ {
		idxs[k] = int64((idxSeed + uint64(k)*2654435761) % uint64(slots))
		blk := make([]byte, blockSize)
		if off := k * blockSize; off < len(raw) {
			copy(blk, raw[off:])
		}
		data[k] = blk
	}
	return idxs, data
}

// FuzzWALRecord feeds the WAL record codec: every encoded record must
// round-trip exactly; every truncation and every single-byte corruption of
// it must be rejected as a torn tail (so recovery can never replay a batch
// the commit path did not write in full); and parsing arbitrary bytes must
// never panic or accept a record that fails to re-encode to the consumed
// bytes.
func FuzzWALRecord(f *testing.F) {
	const blockSize = 32
	const slots = int64(64)
	f.Add(uint64(1), []byte("hello world"), uint64(3), []byte{})
	f.Add(uint64(7), bytes.Repeat([]byte{0xAB}, 3*blockSize), uint64(63), []byte{0x4C, 0x57, 0x4A, 0x4F})
	f.Add(uint64(1<<60), []byte{}, uint64(0), bytes.Repeat([]byte{0}, 40))
	seed := appendWALRecord(nil, 2, 9, []int64{5, 5, 11}, [][]byte{
		make([]byte, blockSize), bytes.Repeat([]byte{1}, blockSize), bytes.Repeat([]byte{2}, blockSize),
	}, blockSize)
	f.Add(uint64(9), []byte("seed"), uint64(5), seed)

	f.Fuzz(func(t *testing.T, seq uint64, raw []byte, idxSeed uint64, junk []byte) {
		idxs, data := buildRecord(seq, raw, idxSeed, blockSize, slots)
		gen := idxSeed>>3 + 1
		enc := appendWALRecord(nil, gen, seq, idxs, data, blockSize)
		if len(enc) != recordLen(len(idxs), blockSize) {
			t.Fatalf("encoded %d blocks into %d bytes, want %d", len(idxs), len(enc), recordLen(len(idxs), blockSize))
		}

		// Round trip.
		rec, n, err := parseWALRecord(enc, blockSize, slots)
		if err != nil {
			t.Fatalf("parse of fresh record: %v", err)
		}
		if n != len(enc) || rec.Gen != gen || rec.Seq != seq || rec.Count != len(idxs) {
			t.Fatalf("round trip consumed %d of %d bytes: gen %d seq %d count %d, want %d %d %d",
				n, len(enc), rec.Gen, rec.Seq, rec.Count, gen, seq, len(idxs))
		}
		for k := range idxs {
			if idx, blk := rec.slot(k, blockSize); idx != idxs[k] || !bytes.Equal(blk, data[k]) {
				t.Fatalf("round trip block %d: idx %d want %d", k, idx, idxs[k])
			}
		}

		// Every proper truncation is a torn tail, never a shorter valid record.
		for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
			if cut >= len(enc) {
				continue
			}
			if _, _, err := parseWALRecord(enc[:cut], blockSize, slots); !errors.Is(err, errTornTail) {
				t.Fatalf("truncation to %d of %d bytes: %v, want errTornTail", cut, len(enc), err)
			}
		}

		// Every single-byte flip must be rejected: the CRC covers gen through
		// blocks, the magic guards the front, and the CRC field guards itself.
		flip := int(seq % uint64(len(enc)))
		mut := append([]byte(nil), enc...)
		mut[flip] ^= 0x01
		if _, _, err := parseWALRecord(mut, blockSize, slots); err == nil {
			t.Fatalf("accepted record with byte %d flipped", flip)
		}

		// Arbitrary bytes: no panic, and anything accepted must re-encode to
		// exactly the bytes consumed (so replay is faithful by construction).
		if rec, n, err := parseWALRecord(junk, blockSize, slots); err == nil {
			ridxs, rdata := make([]int64, rec.Count), make([][]byte, rec.Count)
			for k := range ridxs {
				ridxs[k], rdata[k] = rec.slot(k, blockSize)
			}
			back := appendWALRecord(nil, rec.Gen, rec.Seq, ridxs, rdata, blockSize)
			if !bytes.Equal(back, junk[:n]) {
				t.Fatalf("accepted junk does not re-encode: %x != %x", back, junk[:n])
			}
		}

		// A record followed by garbage still parses: recovery walks records
		// sequentially and only the tail decision looks past the record.
		withTail := append(append([]byte(nil), enc...), junk...)
		if _, n, err := parseWALRecord(withTail, blockSize, slots); err != nil || n != len(enc) {
			t.Fatalf("record with trailing bytes: consumed %d (%v), want %d", n, err, len(enc))
		}
	})
}

// FuzzWALHeader checks the header codec never accepts a geometry mismatch.
func FuzzWALHeader(f *testing.F) {
	f.Add(appendWALHeader(nil, 32), 32)
	f.Add(appendWALHeader(nil, 4096), 32)
	f.Add([]byte{}, 64)
	f.Fuzz(func(t *testing.T, hdr []byte, blockSize int) {
		if blockSize <= 0 || blockSize > 1<<20 {
			t.Skip()
		}
		err := parseWALHeader(hdr, blockSize)
		canonical := appendWALHeader(nil, blockSize)
		// The last 4 header bytes are reserved and ignored on parse.
		if err == nil && !bytes.Equal(hdr[:12], canonical[:12]) {
			t.Fatalf("accepted non-canonical header %x for block size %d", hdr[:walHeaderSize], blockSize)
		}
		if parseWALHeader(canonical, blockSize) != nil {
			t.Fatalf("rejected own header for block size %d", blockSize)
		}
	})
}
