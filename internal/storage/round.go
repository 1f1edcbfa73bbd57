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

// Carrier is a transport that takes several stores' shares of a round to
// one server as one request (remote.Client). DoRound opens one Frame per
// carrier in the round and hands it, in the round's order, every share whose
// store it carries (Carried).
type Carrier interface {
	OpenFrame() Frame
}

// Frame is one carrier's part of a round: one request and its reply.
type Frame interface {
	// Add appends a share; nothing travels yet. The share's arguments stay
	// the caller's but must not change until it has been settled.
	Add(op *RoundOp)
	// Send puts the request on the wire and returns without waiting for
	// the reply.
	Send()
	// Settle fills in the next share's Out and Err — the shares in the
	// order they were added, each once — and does its accounting; the first
	// call waits for the reply. A transient failure resends the whole
	// request, which is safe for the reason a retried batch write is:
	// absolute indices, absolute contents. Settling the last share releases
	// the frame.
	Settle()
}

// Carried is a store whose requests travel on a Carrier.
type Carried interface {
	Store
	Carrier() Carrier
}

// RoundStarter is a store that fans its share out itself (shard.Router):
// StartExchangeTo starts the request of an ExchangeTo call and returns at
// once; finish waits for it and returns what ExchangeTo would have. The
// arguments stay the caller's but must not change until finish has
// returned, and finish must be called exactly once. Accounting happens in
// finish.
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
// Everything runs on the calling goroutine. First every share leaves: the
// shares of stores on one carrier as one frame, a RoundStarter's share
// started. Then each share is settled in order: from its frame's reply, by
// its starter's finish, or — any other store — by running it through
// ExchangeTo. The recorded trace needs no reordering, and a round of one
// share is exactly an ExchangeTo call.
func DoRound(m *Meter, ops ...*RoundOp) {
	if len(ops) == 1 {
		ops[0].run(m)
		return
	}
	if m != nil {
		m.BeginRound()
		defer m.EndRound()
	}
	// For each share, the frame it travels in or the starter's finish.
	var fewFrames [4]Frame
	var fewFinish [4]func() ([]byte, error)
	frames, finish := fewFrames[:], fewFinish[:]
	if len(ops) > len(fewFrames) {
		frames, finish = make([]Frame, len(ops)), make([]func() ([]byte, error), len(ops))
	}
	for k, op := range ops {
		switch st := op.Store.(type) {
		case Carried:
			if frames[k] == nil {
				openFrame(st.Carrier(), ops[k:], frames[k:])
			}
		case RoundStarter:
			finish[k] = st.StartExchangeTo(op.Dst, op.WriteIdxs, op.WriteData, op.ReadIdxs)
		}
	}
	for k, op := range ops {
		switch {
		case frames[k] != nil:
			frames[k].Settle()
		case finish[k] != nil:
			op.Out, op.Err = finish[k]()
		default:
			op.run(m)
		}
	}
}

// openFrame sends c's frame: ops[0] and every later share on c, each marked
// in frames.
func openFrame(c Carrier, ops []*RoundOp, frames []Frame) {
	f := c.OpenFrame()
	for k, op := range ops {
		if st, ok := op.Store.(Carried); ok && st.Carrier() == c {
			f.Add(op)
			frames[k] = f
		}
	}
	f.Send()
}
