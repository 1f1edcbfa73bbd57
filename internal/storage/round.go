package storage

// RoundOp is one store's share of a network round: the arguments of an
// ExchangeTo call against Store, and where its result lands. A share with
// nothing to write is a batch read, one with nothing to read a batch write.
type RoundOp struct {
	Store     Store
	Dst       []byte
	WriteIdxs []int64
	WriteData [][]byte
	ReadIdxs  []int64

	// Out and Err are what ExchangeTo returned for this share. Each share
	// fails or succeeds on its own: one store refusing its part of a round
	// says nothing about the others.
	Out []byte
	Err error
}

// run issues the share alone through the fallback ladder.
func (op *RoundOp) run(m *Meter) {
	op.Out, op.Err = ExchangeTo(op.Store, m, op.Dst, op.WriteIdxs, op.WriteData, op.ReadIdxs)
}

// RoundStarter is a store that may have latency worth overlapping:
// StartExchangeTo sends the request of an ExchangeTo call and returns at
// once; finish waits for the reply and returns what ExchangeTo would have.
// The arguments stay the caller's but must not change until finish has
// returned, and finish must be called exactly once. Accounting happens in
// finish. A store that sees nothing to gain right now — its replies come
// back faster than a second request in flight is worth — returns a nil
// finish and sends nothing: the share is then issued through ExchangeTo.
type RoundStarter interface {
	Store
	StartExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) (finish func() ([]byte, error))
}

// DoRound issues one round made of per-store shares: requests that are all
// fixed before any reply is needed, sent to distinct stores, so they can
// travel together and cost one round trip of latency. On m it is one
// network round (Meter.BeginRound); blocks, bytes and trace entries are
// those of the shares issued one after another, in the order given — which
// is the canonical order, part of what the server may observe, and must
// depend on public information only.
//
// Everything runs on the calling goroutine. Stores that can split sending
// from receiving (RoundStarter) are all started first, then each share is
// settled in order: a started one by waiting for its reply, any other (one
// whose store cannot start, or declined to) by running it through
// ExchangeTo. A store with no latency to hide loses nothing that way, and
// the recorded trace needs no reordering. A round of one share is exactly an
// ExchangeTo call.
func DoRound(m *Meter, ops ...*RoundOp) {
	if len(ops) == 1 {
		ops[0].run(m)
		return
	}
	if m != nil {
		m.BeginRound()
		defer m.EndRound()
	}
	var few [4]func() ([]byte, error)
	finish := few[:]
	if len(ops) > len(few) {
		finish = make([]func() ([]byte, error), len(ops))
	}
	for k, op := range ops {
		if st, ok := op.Store.(RoundStarter); ok {
			finish[k] = st.StartExchangeTo(op.Dst, op.WriteIdxs, op.WriteData, op.ReadIdxs)
		}
	}
	for k, op := range ops {
		if finish[k] != nil {
			op.Out, op.Err = finish[k]()
		} else {
			op.run(m)
		}
	}
}
