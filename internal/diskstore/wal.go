package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// A store has two log files. Each is a header followed by a dense sequence
// of records; every field is little-endian and fixed-width, so a record's
// length is a pure function of its block count and the store's block size —
// a reader can always tell "complete record" from "torn tail" without
// trusting any delimiter found inside the (attacker-visible but
// integrity-checked) payload bytes.
//
//	header:  magic u32 | version u32 | blockSize u32 | reserved u32
//	record:  magic u32 | gen u64 | seq u64 | count u32
//	         | count × (idx u64 | block[blockSize]) | crc u32
//
// The record CRC (Castagnoli) covers gen..blocks. gen is the generation the
// record belongs to — generations alternate between the two files and a
// file is overwritten in place, never truncated, when its turn comes again —
// and seq is the store-wide running batch number. A log's chain is the run
// of CRC-valid records from its start that share one generation and carry
// consecutive seq; anything behind the chain (a torn record, or whole valid
// records a dead generation left there) is not part of the log. doc.go
// gives the invariants that make "replay the chain with the highest
// generation" a complete recovery rule.
const (
	walMagic   = 0x4F4A574C // "OJWL"
	recMagic   = 0x4F4A5752 // "OJWR"
	walVersion = 2

	walHeaderSize = 16
	recHeaderSize = 4 + 8 + 8 + 4 // magic + gen + seq + count
	recOverhead   = recHeaderSize + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Codec errors. errTornTail marks an incomplete or corrupt record — the
// expected shape of a chain's end after a crash. ErrCorrupt marks integrity
// failures that recovery cannot attribute to a torn tail (a bad segment
// header CRC, or two logs claiming the same generation).
var (
	errTornTail = errors.New("diskstore: torn WAL tail")
	// ErrCorrupt is returned when stored data fails its checksum.
	ErrCorrupt = errors.New("diskstore: corrupt block")
)

// walRecord is one atomic batch, decoded as a view: body aliases the parsed
// bytes and holds Count × (idx u64 | block), applied in order (so duplicate
// indices resolve last-writer-wins, the storage.ExchangeStore contract).
type walRecord struct {
	Gen, Seq uint64
	Count    int
	body     []byte
}

// slot returns the k-th destination slot and its block, both views.
func (r walRecord) slot(k, blockSize int) (int64, []byte) {
	off := k * (8 + blockSize)
	return int64(binary.LittleEndian.Uint64(r.body[off:])), r.body[off+8 : off+8+blockSize]
}

// recordLen returns the encoded size of a count-block record.
func recordLen(count, blockSize int) int {
	return recOverhead + count*(8+blockSize)
}

// appendWALHeader appends the log header.
func appendWALHeader(b []byte, blockSize int) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(blockSize))
	return append(b, hdr[:]...)
}

// parseWALHeader validates the log header against the store geometry.
func parseWALHeader(b []byte, blockSize int) error {
	if len(b) < walHeaderSize {
		return fmt.Errorf("%w: header of %d bytes", errTornTail, len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != walMagic {
		return fmt.Errorf("diskstore: bad WAL magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != walVersion {
		return fmt.Errorf("diskstore: unsupported WAL version %d (this build reads version %d)", v, walVersion)
	}
	if bs := binary.LittleEndian.Uint32(b[8:12]); int(bs) != blockSize {
		return fmt.Errorf("diskstore: WAL block size %d does not match store block size %d", bs, blockSize)
	}
	return nil
}

// appendWALRecord appends one encoded record. Every block must be exactly
// blockSize bytes and len(idxs) must equal len(data); the commit path
// validates both before calling.
func appendWALRecord(b []byte, gen, seq uint64, idxs []int64, data [][]byte, blockSize int) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, recMagic)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(idxs)))
	for k, i := range idxs {
		b = binary.LittleEndian.AppendUint64(b, uint64(i))
		b = append(b, data[k]...)
	}
	crc := crc32.Checksum(b[start+4:], crcTable)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// parseWALRecord decodes the record at the front of b without copying. It
// returns the record and the bytes consumed, or errTornTail when b holds a
// prefix of a record, a record that fails its CRC, or one naming a slot
// outside the store. A record can never claim more blocks than its own
// bytes carry, so a forged count is rejected before any arithmetic on it.
func parseWALRecord(b []byte, blockSize int, slots int64) (walRecord, int, error) {
	var rec walRecord
	if len(b) < recOverhead {
		return rec, 0, fmt.Errorf("%w: %d trailing bytes", errTornTail, len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != recMagic {
		return rec, 0, fmt.Errorf("%w: bad record magic %#x", errTornTail, m)
	}
	rec.Gen = binary.LittleEndian.Uint64(b[4:12])
	rec.Seq = binary.LittleEndian.Uint64(b[12:20])
	count := binary.LittleEndian.Uint32(b[20:24])
	if count > uint32(len(b)/(8+blockSize)) {
		return rec, 0, fmt.Errorf("%w: record claims %d blocks beyond payload", errTornTail, count)
	}
	total := recordLen(int(count), blockSize)
	if len(b) < total {
		return rec, 0, fmt.Errorf("%w: record of %d bytes, %d present", errTornTail, total, len(b))
	}
	want := binary.LittleEndian.Uint32(b[total-4 : total])
	if got := crc32.Checksum(b[4:total-4], crcTable); got != want {
		return rec, 0, fmt.Errorf("%w: record crc %#x, want %#x", errTornTail, got, want)
	}
	rec.Count = int(count)
	rec.body = b[recHeaderSize : total-4]
	for k := 0; k < rec.Count; k++ {
		if idx, _ := rec.slot(k, blockSize); idx < 0 || idx >= slots {
			return rec, 0, fmt.Errorf("%w: record slot %d of %d", errTornTail, idx, slots)
		}
	}
	return rec, total, nil
}

// scanChain returns the chain of one log — log is the whole file, header
// included and already validated — and the offset at which the chain ends.
func scanChain(log []byte, blockSize int, slots int64) (chain []walRecord, end int) {
	end = walHeaderSize
	for end < len(log) {
		rec, n, err := parseWALRecord(log[end:], blockSize, slots)
		if err != nil {
			break
		}
		if len(chain) > 0 && (rec.Gen != chain[0].Gen || rec.Seq != chain[len(chain)-1].Seq+1) {
			break
		}
		chain = append(chain, rec)
		end += n
	}
	return chain, end
}

// tornRecordLen sizes the torn record at the front of b, the bytes behind a
// chain's end: a record header stamped with a generation of at least minGen
// whose record does not parse is a write the crash interrupted, and its
// bytes (as many as the file holds) are the torn tail. Anything else —
// records or fragments of a generation older than the newest chain — is
// dead space awaiting overwrite, not a tail, and counts as nothing.
func tornRecordLen(b []byte, blockSize int, slots int64, minGen uint64) int64 {
	if len(b) < recHeaderSize || binary.LittleEndian.Uint32(b[0:4]) != recMagic ||
		binary.LittleEndian.Uint64(b[4:12]) < minGen {
		return 0
	}
	if _, _, err := parseWALRecord(b, blockSize, slots); err == nil {
		return 0
	}
	claimed := int64(recOverhead) + int64(binary.LittleEndian.Uint32(b[20:24]))*int64(8+blockSize)
	return min(claimed, int64(len(b)))
}
