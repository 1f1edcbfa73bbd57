package remote

import (
	"sync/atomic"
	"time"
)

// FaultModel shapes the transport for benchmarks and tests. The server
// consults it once per decoded request: the returned delay is imposed
// before the operation executes (modeling WAN latency so benchmark curves
// reproduce the paper's round-trip cost argument), and when transient is
// true the server answers with a retryable failure instead of executing,
// exercising the client's retry path.
type FaultModel interface {
	Next(req *Request) (delay time.Duration, transient bool)
}

// Shaper is a deterministic FaultModel: a fixed added latency per request
// plus a transient failure on every FailEvery-th request (0 disables
// failures). Determinism is the point — tests assert exact retry behavior.
type Shaper struct {
	// Latency is added to every request before it executes. Because the
	// protocol is one request per round trip, this is exactly a simulated
	// one-way server delay; set it to the target RTT to model a WAN link.
	Latency time.Duration
	// PerBlock is added once per block the request names (its indices and
	// its shares' read and write indices), modeling per-block server work — the serialized
	// cost the shard bench shows shrinking ~N× when batches fan out to N
	// servers in parallel, while the fixed Latency is paid once per round
	// regardless of shard count.
	PerBlock time.Duration
	// FailEvery makes every FailEvery-th request (1-based) fail with a
	// transient error. 1 fails every request; 0 disables.
	FailEvery int64

	n atomic.Int64
}

// Next implements FaultModel.
func (s *Shaper) Next(req *Request) (time.Duration, bool) {
	k := s.n.Add(1)
	delay := s.Latency
	if s.PerBlock > 0 && req != nil {
		delay += s.PerBlock * time.Duration(req.blocks())
	}
	return delay, s.FailEvery > 0 && k%s.FailEvery == 0
}

// Requests reports how many requests the shaper has seen.
func (s *Shaper) Requests() int64 { return s.n.Load() }
