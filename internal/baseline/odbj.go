// Package baseline implements the systems the paper evaluates against:
//
//   - ODBJ — the oblivious binary equi-join of Krastnikov, Kerschbaum &
//     Stebila (PVLDB'20): oblivious sorts plus linear passes, O(1) client
//     memory, O((n+R)·log²(n+R)) cost;
//   - ObliDB's hash join — the general multiway baseline that is
//     "equivalent to a Cartesian product" (paper Table 1);
//   - Opaque's sort-merge join and ObliDB's 0-OM join — correct only for
//     primary–foreign-key (one-to-many) joins.
//
// The insecure Raw Index baseline has no code here: it is package core's
// joins over raw tables (table.Options.Raw), which run the same algorithms
// with nothing oblivious around them.
package baseline

import (
	"encoding/binary"
	"math"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

// Options configures baseline executions.
type Options struct {
	// Mem is the trusted client memory in records (0 = the paper's
	// M = 2B, obliv.ClientMem). ObliDB's hash select runs with more, and
	// Table 1's 0-OM join with O(1).
	Mem int
	// BlockSize is the total encrypted block size for intermediate vectors.
	BlockSize int
	// Meter receives traffic accounting.
	Meter *storage.Meter
	// Sealer encrypts intermediates; required.
	Sealer *xcrypto.Sealer
	// PadTo optionally pads the output size (Section 8 comparisons); 0
	// means no padding.
	PadTo int64
}

func (o Options) blockSize() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return table.DefaultBlockPayload + xcrypto.Overhead
}

// decodeLen is how many output records a baseline reads back to decode its
// real ones, keep of them kept: the real prefix when nothing is padded,
// whose count is then declared leakage, and the kept prefix otherwise, as
// the engine's joins do.
func decodeLen(real int, keep int64, o Options) int {
	if o.PadTo > 0 {
		return int(keep)
	}
	return real
}

func (o Options) mem(recSize int) int {
	if o.Mem > 0 {
		return o.Mem
	}
	return obliv.ClientMem(recSize, o.blockSize())
}

// Result reports a baseline join's outcome.
type Result struct {
	Schema    relation.Schema
	Tuples    []relation.Tuple
	RealCount int
	Stats     storage.Stats
}

// wrec is ODBJ's working record: annotations plus the encoded source tuple.
type wrec struct {
	flag   byte // 0 dummy, 1 real, 2 placeholder
	key    int64
	src    byte
	c0, c1 int64
	t0     int64
	t1     int64
	group  int64
	pos    int64
	seq    int64
	tup    []byte
}

const (
	wflagDummy       = 0
	wflagReal        = 1
	wflagPlaceholder = 2
	wheader          = 1 + 8 + 1 + 8*7
	posInf           = int64(math.MaxInt64)
)

func marshalW(r *wrec, tupSize int) []byte {
	buf := make([]byte, wheader+tupSize)
	buf[0] = r.flag
	binary.LittleEndian.PutUint64(buf[1:], uint64(r.key))
	buf[9] = r.src
	for i, v := range [...]int64{r.c0, r.c1, r.t0, r.t1, r.group, r.pos, r.seq} {
		binary.LittleEndian.PutUint64(buf[10+8*i:], uint64(v))
	}
	copy(buf[wheader:], r.tup)
	return buf
}

func unmarshalW(buf []byte) wrec {
	r := wrec{
		flag: buf[0],
		key:  int64(binary.LittleEndian.Uint64(buf[1:])),
		src:  buf[9],
	}
	vals := make([]int64, 7)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(buf[10+8*i:]))
	}
	r.c0, r.c1, r.t0, r.t1, r.group, r.pos, r.seq = vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6]
	r.tup = append([]byte(nil), buf[wheader:]...)
	return r
}
