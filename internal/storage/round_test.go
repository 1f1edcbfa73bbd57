package storage_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// striped lays a MemStore's slots over two unmetered MemStores, even
// indices on one and odd on the other, recording the order in which its
// shares are split and joined; a join meters its share on m. A round of its
// one share is the MemStore's own.
type striped struct {
	*storage.MemStore
	m      *storage.Meter
	halves [2]*storage.MemStore
	log    *[]string
}

func stripe(s *storage.MemStore, m *storage.Meter, log *[]string) striped {
	st := striped{MemStore: s, m: m, log: log}
	for h := range st.halves {
		st.halves[h] = storage.NewMemStore(s.Name(), (s.Len()+1-int64(h))/2, s.BlockSize(), nil)
	}
	for i := int64(0); i < s.Len(); i++ {
		blk, err := s.Read(i)
		if err == nil {
			err = st.halves[i%2].Write(i/2, blk)
		}
		if err != nil {
			panic(err)
		}
	}
	return st
}

func (s striped) Split(op *storage.RoundOp) ([]*storage.RoundOp, func()) {
	*s.log = append(*s.log, "split "+s.Name())
	var parts [2]storage.RoundOp
	for k, i := range op.WriteIdxs {
		p := &parts[i%2]
		p.WriteIdxs, p.WriteData = append(p.WriteIdxs, i/2), append(p.WriteData, op.WriteData[k])
	}
	for _, i := range op.ReadIdxs {
		parts[i%2].ReadIdxs = append(parts[i%2].ReadIdxs, i/2)
	}
	parts[0].Store, parts[1].Store = s.halves[0], s.halves[1]
	return []*storage.RoundOp{&parts[0], &parts[1]}, func() {
		*s.log = append(*s.log, "join "+s.Name())
		for _, p := range parts {
			if p.Err != nil {
				op.Out, op.Err = nil, p.Err
				return
			}
		}
		op.Out = op.Dst
		for _, i := range op.ReadIdxs {
			p := &parts[i%2]
			op.Out, p.Out = append(op.Out, p.Out[:s.BlockSize()]...), p.Out[s.BlockSize():]
		}
		s.m.CountExchange(s.Name(), op.WriteIdxs, op.ReadIdxs, s.BlockSize())
	}
}

// carried is a MemStore whose shares travel on a carrier, recording what
// the carrier's frames are asked to do.
type carried struct {
	*storage.MemStore
	car *logCarrier
}

func (s carried) Carrier() storage.Carrier { return s.car }

type logCarrier struct{ log *[]string }

func (c *logCarrier) OpenFrame() storage.Frame { return &logFrame{log: c.log} }

// logFrame settles each share through its MemStore, once sent.
type logFrame struct {
	log  *[]string
	ops  []*storage.RoundOp
	sent bool
	next int
}

func (f *logFrame) Add(op *storage.RoundOp) {
	*f.log = append(*f.log, "add "+op.Store.(carried).Name())
	f.ops = append(f.ops, op)
}

func (f *logFrame) Send() {
	*f.log = append(*f.log, "send")
	f.sent = true
}

func (f *logFrame) Settle() {
	op := f.ops[f.next]
	f.next++
	if !f.sent {
		panic("share settled before its frame was sent")
	}
	*f.log = append(*f.log, "settle "+op.Store.(carried).Name())
	op.Out, op.Err = op.Store.(carried).ExchangeTo(op.Dst, op.WriteIdxs, op.WriteData, op.ReadIdxs)
}

// TestDoRoundIsOneRound: shares on distinct stores cost one network round
// in all, whatever form each store offers — native, decorated down to the
// slice forms (counting belongs to the issuer of the round, not to a store
// capability), carried in one frame, or split into start and finish —
// while blocks, bytes and trace entries are those of the shares issued one
// after another, stamped with the one round they travelled in.
func TestDoRoundIsOneRound(t *testing.T) {
	const bs = 16
	blk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, bs) }
	var log []string
	wraps := map[string]func(*storage.MemStore, *storage.Meter) storage.Store{
		"native":      func(s *storage.MemStore, _ *storage.Meter) storage.Store { return s },
		"slice-forms": func(s *storage.MemStore, _ *storage.Meter) storage.Store { return storetest.HideAppend(s) },
		"striped":     func(s *storage.MemStore, m *storage.Meter) storage.Store { return stripe(s, m, &log) },
		"carried":     func(s *storage.MemStore, _ *storage.Meter) storage.Store { return carried{s, &logCarrier{&log}} },
	}
	for name, wrap := range wraps {
		t.Run(name, func(t *testing.T) {
			log = log[:0]
			run := func(grouped bool) (storage.Stats, []storage.Access, [3][]byte) {
				m := storage.NewMeter()
				var ops [3]*storage.RoundOp
				for i, store := range []string{"a", "b", "c"} {
					st := storage.NewMemStore(store, 8, bs, m)
					if err := st.WriteMany([]int64{1, 2}, [][]byte{blk(byte(10 * i)), blk(byte(10*i + 1))}); err != nil {
						t.Fatal(err)
					}
					ops[i] = &storage.RoundOp{Store: wrap(st, m), ReadIdxs: []int64{2, 1}}
				}
				ops[1].WriteIdxs, ops[1].WriteData = []int64{2}, [][]byte{blk(99)} // an exchange
				ops[2].ReadIdxs, ops[2].WriteIdxs, ops[2].WriteData = nil, []int64{5}, [][]byte{blk(7)}
				m.Reset()
				m.SetTracing(true)
				if grouped {
					storage.DoRound(m, ops[:]...)
				} else {
					for _, op := range ops {
						storage.DoRound(m, op)
					}
				}
				var out [3][]byte
				for i, op := range ops {
					if op.Err != nil {
						t.Fatalf("share %d: %v", i, op.Err)
					}
					out[i] = op.Out
				}
				return m.Snapshot(), m.Trace(), out
			}
			together, trace, out := run(true)
			apart, apartTrace, apartOut := run(false)
			if !reflect.DeepEqual(out, apartOut) || !bytes.Equal(out[1], append(blk(99), blk(10)...)) {
				t.Fatalf("results differ: %v vs %v", out, apartOut)
			}
			if together.NetworkRounds != 1 {
				t.Fatalf("three shares cost %d rounds, want 1", together.NetworkRounds)
			}
			if apart.NetworkRounds < 3 {
				t.Fatalf("three rounds of one share cost %d rounds", apart.NetworkRounds)
			}
			together.NetworkRounds, apart.NetworkRounds = 0, 0
			if together != apart {
				t.Fatalf("blocks and bytes: %+v in one round, %+v apart", together, apart)
			}
			if len(trace) != len(apartTrace) {
				t.Fatalf("trace lengths %d vs %d", len(trace), len(apartTrace))
			}
			for i := range trace {
				if trace[i].Round != 1 {
					t.Fatalf("access %d travelled in round %d of a one-round trace", i, trace[i].Round)
				}
				trace[i].Round, apartTrace[i].Round = 0, 0
			}
			if !reflect.DeepEqual(trace, apartTrace) {
				t.Fatalf("grouping changed the accesses:\n%v\n%v", trace, apartTrace)
			}
			if name == "carried" {
				// Each store has a carrier of its own here: three frames,
				// all sent before any share is settled.
				want := []string{"add a", "send", "add b", "send", "add c", "send", "settle a", "settle b", "settle c"}
				if !reflect.DeepEqual(log, want) {
					t.Fatalf("frame calls %v, want %v", log, want)
				}
			}
			if name == "striped" {
				// Every share is on its way before any reply is waited for;
				// the run of one-share rounds that followed used ExchangeTo.
				want := []string{"split a", "split b", "split c", "join a", "join b", "join c"}
				if !reflect.DeepEqual(log, want) {
					t.Fatalf("split/join order %v, want %v", log, want)
				}
			}
		})
	}
}

// refusing fails every batch call.
type refusing struct{ storage.ExchangeStore }

func (refusing) Exchange([]int64, [][]byte, []int64) ([][]byte, error) {
	return nil, errors.New("refused")
}
func (refusing) ReadMany([]int64) ([][]byte, error) { return nil, errors.New("refused") }

// TestDoRoundSharesFailAlone: one store refusing its share leaves the other
// shares' results intact, and the round still counts once.
func TestDoRoundSharesFailAlone(t *testing.T) {
	m := storage.NewMeter()
	good := storage.NewMemStore("good", 4, 8, m)
	bad := refusing{storage.NewMemStore("bad", 4, 8, m)}
	ops := []*storage.RoundOp{
		{Store: bad, ReadIdxs: []int64{0}},
		{Store: good, ReadIdxs: []int64{1, 2}},
	}
	storage.DoRound(m, ops...)
	if ops[0].Err == nil || ops[0].Out != nil {
		t.Fatalf("refused share: out %v, err %v", ops[0].Out, ops[0].Err)
	}
	if ops[1].Err != nil || len(ops[1].Out) != 16 {
		t.Fatalf("healthy share: %d bytes, %v", len(ops[1].Out), ops[1].Err)
	}
	if got := m.Snapshot().NetworkRounds; got != 1 {
		t.Fatalf("%d rounds, want 1", got)
	}
	// The round is closed: the next batch is a round of its own.
	if _, err := good.ReadMany([]int64{0}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().NetworkRounds; got != 2 {
		t.Fatalf("%d rounds after a further batch, want 2", got)
	}
}

// TestDoRoundFramesPerCarrier: the shares of stores on one carrier travel in
// one frame, sent before any share of the round is settled, while the other
// shares of the round are issued in between — settlement, and so the meter's
// trace, follows the order given.
func TestDoRoundFramesPerCarrier(t *testing.T) {
	m := storage.NewMeter()
	m.SetTracing(true)
	var log []string
	car := &logCarrier{&log}
	a := carried{storage.NewMemStore("a", 4, 8, m), car}
	b := storage.NewMemStore("b", 4, 8, m)
	c := carried{storage.NewMemStore("c", 4, 8, m), car}
	ops := []*storage.RoundOp{{Store: a, ReadIdxs: []int64{0}}, {Store: b, ReadIdxs: []int64{1}}, {Store: c, ReadIdxs: []int64{2}}}
	storage.DoRound(m, ops...)
	for i, op := range ops {
		if op.Err != nil || len(op.Out) != 8 {
			t.Fatalf("share %d: %d bytes, %v", i, len(op.Out), op.Err)
		}
	}
	if want := []string{"add a", "add c", "send", "settle a", "settle c"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("frame calls %v, want %v", log, want)
	}
	var stores []string
	for _, acc := range m.Trace() {
		stores = append(stores, acc.Store)
	}
	if !reflect.DeepEqual(stores, []string{"a", "b", "c"}) || m.Snapshot().NetworkRounds != 1 {
		t.Fatalf("trace %v in %d rounds, want a b c in one", stores, m.Snapshot().NetworkRounds)
	}
}
