package diskstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The recovery rule, tested from the outside: these tests write the two log
// files by hand — states no clean run would leave, and some only an
// adversary would — open the store, and compare it with a reference that
// knows which records were laid down where.

const (
	recSlots     = 16
	recBlockSize = 32
)

// logRecord is one record to lay down: fill goes to every slot in idxs.
// A corrupt record has a payload byte flipped after encoding.
type logRecord struct {
	gen, seq uint64
	idxs     []int64
	fill     byte
	corrupt  bool
}

func (r logRecord) encode() []byte {
	data := make([][]byte, len(r.idxs))
	for k := range data {
		data[k] = bytes.Repeat([]byte{r.fill}, recBlockSize)
	}
	b := appendWALRecord(nil, r.gen, r.seq, r.idxs, data, recBlockSize)
	if r.corrupt {
		b[len(b)/2] ^= 0x40
	}
	return b
}

// buildLog encodes a log file: header, the records back to back, then tail.
func buildLog(recs []logRecord, tail []byte) []byte {
	b := appendWALHeader(nil, recBlockSize)
	for _, r := range recs {
		b = append(b, r.encode()...)
	}
	return append(b, tail...)
}

// referenceChain is the recovery rule restated over the record list: the
// run of intact records from the start with one generation and consecutive
// seq.
func referenceChain(recs []logRecord) []logRecord {
	var chain []logRecord
	for _, r := range recs {
		if r.corrupt || len(chain) > 0 && (r.gen != chain[0].gen || r.seq != chain[len(chain)-1].seq+1) {
			break
		}
		chain = append(chain, r)
	}
	return chain
}

// newestChain picks the chain recovery must replay; ok is false when both
// logs claim one generation, which recovery must refuse.
func newestChain(logs [2][]logRecord) (chain []logRecord, ok bool) {
	c0, c1 := referenceChain(logs[0]), referenceChain(logs[1])
	switch {
	case len(c0) > 0 && len(c1) > 0 && c0[0].gen == c1[0].gen:
		return nil, false
	case len(c1) == 0 || len(c0) > 0 && c0[0].gen > c1[0].gen:
		return c0, true
	}
	return c1, true
}

// openOverLogs creates a store, replaces its logs, and reopens it.
func openOverLogs(t testing.TB, logs [2][]byte) (*Store, string, error) {
	t.Helper()
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", recSlots, recBlockSize, Options{FS: noSyncFS{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, b := range logs {
		if err := os.WriteFile(base+logSuffixes[i], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenStore(base, "s", recSlots, recBlockSize, Options{FS: noSyncFS{}})
	return r, base, err
}

// checkAppliedExactly asserts the store holds the given records applied in
// order to an all-zero segment, and nothing else, and that this open
// replayed the stated number of them.
func checkAppliedExactly(t testing.TB, s *Store, applied []logRecord, replayed int) {
	t.Helper()
	want := make([]byte, recSlots)
	for _, r := range applied {
		for _, i := range r.idxs {
			want[i] = r.fill
		}
	}
	got, err := s.ReadMany(seqIdxs(0, recSlots))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fills(got), want) {
		t.Fatalf("recovered slot fills %x, want %x (the newest chain and nothing else)", fills(got), want)
	}
	if st := s.Stats(); st.RecoveredRecords != int64(replayed) {
		t.Fatalf("replayed %d records, want %d", st.RecoveredRecords, replayed)
	}
}

func TestRecoveryReplaysNewestChainOnly(t *testing.T) {
	rec := func(gen, seq uint64, fill byte, idxs ...int64) logRecord {
		return logRecord{gen: gen, seq: seq, idxs: idxs, fill: fill}
	}
	for _, tc := range []struct {
		name     string
		logs     [2][]logRecord
		tails    [2][]byte
		wantTorn int64
	}{
		{
			// Generation 3 has overwritten the head of the log generation 1
			// once filled; generation 1's later records still sit, whole and
			// CRC-valid, exactly where generation 3's next record will go.
			name: "older generation aligned behind the live tail",
			logs: [2][]logRecord{
				{rec(3, 7, 0x37, 1, 2), rec(3, 8, 0x38, 2, 3), rec(1, 3, 0x13, 1, 9), rec(1, 4, 0x14, 3, 10)},
				{rec(2, 5, 0x25, 4, 5), rec(2, 6, 0x26, 5, 6)},
			},
		},
		{
			// The same, but the stale record carries the live generation's
			// number and only its seq gives it away.
			name: "same generation behind a seq gap",
			logs: [2][]logRecord{
				{rec(3, 7, 0x37, 1, 2), rec(3, 9, 0x39, 1, 9)},
				{rec(2, 5, 0x25, 4, 5)},
			},
		},
		{
			name: "complete older chain beside a shorter newer one",
			logs: [2][]logRecord{
				{rec(4, 10, 0x4A, 0), rec(4, 11, 0x4B, 1), rec(4, 12, 0x4C, 2), rec(4, 13, 0x4D, 3), rec(4, 14, 0x4E, 4)},
				{rec(5, 15, 0x5F, 2)},
			},
		},
		{
			// Generation 7 was about to start in log 1, whose head still
			// holds generation 5: the crash came after the checkpoint and
			// before the first record.
			name: "stale first record where the next generation was to start",
			logs: [2][]logRecord{
				{rec(6, 20, 0x60, 7, 8), rec(6, 21, 0x61, 8, 9)},
				{rec(5, 18, 0x58, 8, 12), rec(5, 19, 0x59, 9, 13)},
			},
		},
		{
			// Its first record was torn: the generation does not exist, and
			// what lies behind the torn record is not looked at.
			name: "torn first record of the next generation",
			logs: [2][]logRecord{
				{rec(6, 20, 0x60, 7, 8), rec(6, 21, 0x61, 8, 9)},
				{{gen: 7, seq: 22, idxs: []int64{8, 12}, fill: 0x72, corrupt: true}, rec(5, 19, 0x59, 9, 13)},
			},
			wantTorn: int64(recordLen(2, recBlockSize)),
		},
		{
			name: "torn record at the live tail, junk after a stale one",
			logs: [2][]logRecord{
				{rec(9, 30, 0x90, 1), {gen: 9, seq: 31, idxs: []int64{2}, fill: 0x91, corrupt: true}},
				{rec(8, 29, 0x89, 1, 2)},
			},
			tails:    [2][]byte{nil, []byte("junk that is no record")},
			wantTorn: int64(recordLen(1, recBlockSize)),
		},
		{
			name: "empty logs",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, base, err := openOverLogs(t, [2][]byte{buildLog(tc.logs[0], tc.tails[0]), buildLog(tc.logs[1], tc.tails[1])})
			if err != nil {
				t.Fatal(err)
			}
			chain, _ := newestChain(tc.logs)
			checkAppliedExactly(t, s, chain, len(chain))
			if got := s.Stats().TornTailBytes; got != tc.wantTorn {
				t.Errorf("counted %d torn bytes, want %d (dead generations are not a tail)", got, tc.wantTorn)
			}

			// The store goes on from there: a new batch, a crash, and the
			// reopened store holds the chain plus that batch — whatever was
			// lying in the log the new generation started in.
			if err := s.Write(15, block(recBlockSize, 0xFF)); err != nil {
				t.Fatal(err)
			}
			s.closeFiles()
			r, err := OpenStore(base, "s", recSlots, recBlockSize, Options{FS: noSyncFS{}})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			checkAppliedExactly(t, r, append(chain, logRecord{idxs: []int64{15}, fill: 0xFF}), 1)
		})
	}
}

// TestRecoveryRefusesTwinGenerations: no run of the store leaves one
// generation in both logs, and recovery cannot order them.
func TestRecoveryRefusesTwinGenerations(t *testing.T) {
	logs := [2][]logRecord{
		{{gen: 4, seq: 9, idxs: []int64{1}, fill: 1}},
		{{gen: 4, seq: 9, idxs: []int64{1}, fill: 2}},
	}
	if _, _, err := openOverLogs(t, [2][]byte{buildLog(logs[0], nil), buildLog(logs[1], nil)}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("twin generations opened: %v, want ErrCorrupt", err)
	}
}

// FuzzRecoverLogs builds both logs from fuzz input — records with arbitrary
// generations and seqs, some corrupted, arbitrary bytes behind them — and
// requires of recovery that it never panics and applies exactly the newest
// chain.
func FuzzRecoverLogs(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})
	// gen, seq, slot and fill seed, flags: one record per five bytes.
	f.Add([]byte{3, 7, 1, 0x37, 0, 3, 8, 2, 0x38, 0, 1, 3, 1, 0x13, 0}, []byte{2, 5, 4, 0x25, 0, 2, 6, 5, 0x26, 0}, []byte{}, []byte("tail"))
	f.Add([]byte{4, 1, 0, 1, 0, 4, 2, 0, 2, 1, 4, 3, 0, 3, 0}, []byte{5, 4, 9, 9, 1}, []byte{0x52, 0x57, 0x4A, 0x4F}, []byte{})
	f.Add([]byte{6, 1, 1, 1, 0}, []byte{6, 1, 1, 2, 0}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, prog0, prog1, tail0, tail1 []byte) {
		if len(prog0)+len(prog1) > 200 || len(tail0)+len(tail1) > 1<<12 {
			t.Skip()
		}
		decode := func(prog []byte) (recs []logRecord) {
			for ; len(prog) >= 5; prog = prog[5:] {
				r := logRecord{gen: uint64(prog[0]%8) + 1, seq: uint64(prog[1] % 16), fill: prog[3] | 1, corrupt: prog[4]&1 == 1}
				for k := 0; k <= int(prog[4]>>1)%3; k++ {
					r.idxs = append(r.idxs, int64(int(prog[2])+k*5)%recSlots)
				}
				recs = append(recs, r)
			}
			return recs
		}
		logs := [2][]logRecord{decode(prog0), decode(prog1)}
		s, _, err := openOverLogs(t, [2][]byte{buildLog(logs[0], tail0), buildLog(logs[1], tail1)})
		chain, ok := newestChain(logs)
		if !ok {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("twin generations opened: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer s.Close()
		checkAppliedExactly(t, s, chain, len(chain))
	})
}
