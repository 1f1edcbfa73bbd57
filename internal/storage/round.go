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

// run issues the share alone, as one ExchangeTo call.
func (op *RoundOp) run() {
	op.Out, op.Err = ExchangeTo(op.Store, op.Dst, op.WriteIdxs, op.WriteData, op.ReadIdxs)
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

// Striped is a store laid over other stores (shard.Router): its share of a
// round travels as sub-shares on the stores beneath it, which DoRound sends
// with the rest of the round — those on one carrier in that carrier's frame.
type Striped interface {
	Store
	// Split returns op's parts — shares on the stores beneath, in an order
	// that depends on op's indices only — and join, which fills in op's Out
	// and Err from the settled parts and does op's accounting. A share
	// refused before anything is sent has no parts. The stores beneath
	// meter nothing of op's: join meters op.
	Split(op *RoundOp) (parts []*RoundOp, join func())
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
// shares of stores on one carrier as one frame, a Striped store's share as
// its parts. Then each share is settled in order: from its frame's reply,
// by joining its parts, or — any other store — by running it through
// ExchangeTo. The recorded trace needs no reordering, and a round of one
// share is exactly an ExchangeTo call.
func DoRound(m *Meter, ops ...*RoundOp) {
	if len(ops) == 1 {
		ops[0].run()
		return
	}
	if m != nil {
		m.BeginRound()
		defer m.EndRound()
	}
	for _, op := range ops {
		if _, ok := op.Store.(Striped); ok {
			doStriped(ops)
			return
		}
	}
	// For each share, the frame it travels in.
	var few [4]Frame
	frames := few[:]
	if len(ops) > len(few) {
		frames = make([]Frame, len(ops))
	}
	send(ops, frames)
	for k, op := range ops {
		settle(op, frames[k])
	}
}

// doStriped is DoRound's round that holds a Striped share. Each Striped
// share is replaced by its parts, which leave with the other shares, and is
// joined where it stands in the settle order, right after its parts.
func doStriped(ops []*RoundOp) {
	var flat []*RoundOp
	joins := make([]func(), len(ops))
	ends := make([]int, len(ops)) // ops[k] leaves as flat[ends[k-1]:ends[k]]
	for k, op := range ops {
		if st, ok := op.Store.(Striped); ok {
			var parts []*RoundOp
			parts, joins[k] = st.Split(op)
			flat = append(flat, parts...)
		} else {
			flat = append(flat, op)
		}
		ends[k] = len(flat)
	}
	frames := make([]Frame, len(flat))
	send(flat, frames)
	j := 0
	for k := range ops {
		if joins[k] == nil {
			settle(flat[j], frames[j])
			j++
			continue
		}
		for ; j < ends[k]; j++ {
			settle(flat[j], frames[j])
		}
		joins[k]()
	}
}

// send sends the frame of every carrier in ops, marking in frames the one
// each share travels in.
func send(ops []*RoundOp, frames []Frame) {
	for k, op := range ops {
		if frames[k] != nil {
			continue
		}
		if st, ok := op.Store.(Carried); ok {
			openFrame(st.Carrier(), ops[k:], frames[k:])
		}
	}
}

// settle fills in op's Out and Err: from its frame f, or through ExchangeTo.
func settle(op *RoundOp, f Frame) {
	if f != nil {
		f.Settle()
	} else {
		op.run()
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
