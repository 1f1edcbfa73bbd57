package storage

import (
	"fmt"
	"sync"
	"time"
)

// AccessKind distinguishes the two server-visible operations.
type AccessKind uint8

// Access kinds.
const (
	KindRead AccessKind = iota
	KindWrite
)

func (k AccessKind) String() string {
	if k == KindRead {
		return "read"
	}
	return "write"
}

// Access is one server-visible block operation. A sequence of Accesses is
// exactly the Trace of Definition 1 in the paper (location + traffic).
type Access struct {
	Store string
	Kind  AccessKind
	Index int64
	Bytes int
	// Round is the ordinal of the network round the access travelled in,
	// counted from 1 since tracing was enabled: accesses that share a value
	// shared a round trip, whichever stores they touched (DoRound).
	Round int64
}

// DefaultTraceLimit bounds the recorded access sequence when tracing is
// enabled and no explicit limit was set: 4Mi accesses (~192 MB of Access
// values). Long joins traced for obliviousness checks stop appending at
// the cap and count the overflow in Dropped instead of growing without
// bound.
const DefaultTraceLimit = 1 << 22

// Meter accumulates traffic statistics across one or more stores. It is safe
// for concurrent use. When tracing is enabled it also records the full
// access sequence for obliviousness testing, capped at SetTraceLimit
// (DefaultTraceLimit unless configured) with overflow counted in Dropped.
type Meter struct {
	mu         sync.Mutex
	reads      int64
	writes     int64
	bytesRead  int64
	bytesWrite int64
	rounds     int64
	inRound    bool  // between BeginRound and EndRound
	counted    bool  // the open round has been added to rounds
	traceBase  int64 // rounds when tracing was enabled: Access.Round counts from here
	tracing    bool
	trace      []Access
	traceLimit int // 0 = DefaultTraceLimit, < 0 = unlimited
	dropped    int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Stats is a snapshot of a Meter.
type Stats struct {
	BlockReads    int64
	BlockWrites   int64
	BytesRead     int64
	BytesWritten  int64
	NetworkRounds int64
}

// BlocksMoved returns total block operations.
func (s Stats) BlocksMoved() int64 { return s.BlockReads + s.BlockWrites }

// BytesMoved returns total bytes transferred in either direction.
func (s Stats) BytesMoved() int64 { return s.BytesRead + s.BytesWritten }

// Sub returns s - o, the traffic between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		BlockReads:    s.BlockReads - o.BlockReads,
		BlockWrites:   s.BlockWrites - o.BlockWrites,
		BytesRead:     s.BytesRead - o.BytesRead,
		BytesWritten:  s.BytesWritten - o.BytesWritten,
		NetworkRounds: s.NetworkRounds - o.NetworkRounds,
	}
}

// Add returns s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		BlockReads:    s.BlockReads + o.BlockReads,
		BlockWrites:   s.BlockWrites + o.BlockWrites,
		BytesRead:     s.BytesRead + o.BytesRead,
		BytesWritten:  s.BytesWritten + o.BytesWritten,
		NetworkRounds: s.NetworkRounds + o.NetworkRounds,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d bytes=%d rounds=%d",
		s.BlockReads, s.BlockWrites, s.BytesMoved(), s.NetworkRounds)
}

// appendTrace records one access, honoring the trace cap. Caller holds mu.
func (m *Meter) appendTrace(a Access) {
	limit := m.traceLimit
	if limit == 0 {
		limit = DefaultTraceLimit
	}
	if limit > 0 && len(m.trace) >= limit {
		m.dropped++
		return
	}
	a.Round = m.rounds - m.traceBase
	m.trace = append(m.trace, a)
}

// BeginRound opens a round that spans several stores: until EndRound, the
// CountExchange calls together add one to NetworkRounds, while blocks,
// bytes and trace entries are recorded exactly as outside a round. The
// issuer of the round calls it (DoRound), never a store. A round belongs to
// the goroutine that opened it — concurrent issuers each need their own
// Meter, which is how every concurrent client in this module is built.
func (m *Meter) BeginRound() {
	m.mu.Lock()
	m.inRound, m.counted = true, false
	m.mu.Unlock()
}

// EndRound closes the round BeginRound opened.
func (m *Meter) EndRound() {
	m.mu.Lock()
	m.inRound, m.counted = false, false
	m.mu.Unlock()
}

// CountExchange records one exchange (ExchangeStore) — a combined
// write+read batch, or a one-sided one — as one network round, or as part
// of the issuer's open round (BeginRound), with one access per block. It is
// how every store counts a round: a transport calls it once per exchange it
// puts on the wire, so NetworkRounds counts real round trips. When tracing,
// every block is appended to the trace individually, the writes before the
// reads, matching the order the server applies them. A fully empty exchange
// records nothing.
func (m *Meter) CountExchange(store string, writeIdxs, readIdxs []int64, blockBytes int) {
	if len(writeIdxs) == 0 && len(readIdxs) == 0 {
		return
	}
	m.mu.Lock()
	if !m.inRound || !m.counted {
		m.rounds++
		m.counted = m.inRound
	}
	m.writes += int64(len(writeIdxs))
	m.bytesWrite += int64(len(writeIdxs)) * int64(blockBytes)
	m.reads += int64(len(readIdxs))
	m.bytesRead += int64(len(readIdxs)) * int64(blockBytes)
	if m.tracing {
		for _, i := range writeIdxs {
			m.appendTrace(Access{Store: store, Kind: KindWrite, Index: i, Bytes: blockBytes})
		}
		for _, i := range readIdxs {
			m.appendTrace(Access{Store: store, Kind: KindRead, Index: i, Bytes: blockBytes})
		}
	}
	m.mu.Unlock()
}

// Snapshot returns the current counters.
func (m *Meter) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		BlockReads:    m.reads,
		BlockWrites:   m.writes,
		BytesRead:     m.bytesRead,
		BytesWritten:  m.bytesWrite,
		NetworkRounds: m.rounds,
	}
}

// Reset zeroes all counters and drops any recorded trace.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.reads, m.writes, m.bytesRead, m.bytesWrite, m.rounds = 0, 0, 0, 0, 0
	m.traceBase = 0
	m.trace = nil
	m.dropped = 0
	m.mu.Unlock()
}

// SetTracing enables or disables full access-sequence recording. Enabling
// starts a fresh trace with a zeroed Dropped counter.
func (m *Meter) SetTracing(on bool) {
	m.mu.Lock()
	m.tracing = on
	m.traceBase = m.rounds
	m.trace = nil
	m.dropped = 0
	m.mu.Unlock()
}

// SetTraceLimit bounds the recorded trace to at most n accesses; further
// accesses are counted in Dropped instead of appended. n == 0 restores
// DefaultTraceLimit; n < 0 removes the cap entirely (the caller accepts
// the memory risk). The limit applies from the next recorded access — an
// existing over-limit trace is not truncated.
func (m *Meter) SetTraceLimit(n int) {
	m.mu.Lock()
	if n < 0 {
		m.traceLimit = -1
	} else {
		m.traceLimit = n
	}
	m.mu.Unlock()
}

// Dropped reports how many accesses the trace cap discarded since tracing
// was last enabled or the meter reset. A non-zero value means Trace is a
// prefix of the real access sequence; counters are always complete.
func (m *Meter) Dropped() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// TraceLen reports the recorded trace length without copying it.
func (m *Meter) TraceLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.trace)
}

// Trace returns a copy of the recorded access sequence.
func (m *Meter) Trace() []Access {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Access, len(m.trace))
	copy(out, m.trace)
	return out
}

// CostModel converts traffic counters into a simulated query time. The
// defaults mirror the paper's testbed: a 1 Gbps link between client and
// server plus a per-round-trip latency.
type CostModel struct {
	// BandwidthBps is the link bandwidth in bits per second.
	BandwidthBps float64
	// RTT is the per-network-round latency.
	RTT time.Duration
}

// DefaultCostModel matches the paper's 1 Gbps setup with a LAN-class RTT.
func DefaultCostModel() CostModel {
	return CostModel{BandwidthBps: 1e9, RTT: 500 * time.Microsecond}
}

// Cost returns the simulated wall-clock time for the given traffic.
func (c CostModel) Cost(s Stats) time.Duration {
	if c.BandwidthBps <= 0 {
		c.BandwidthBps = 1e9
	}
	transfer := time.Duration(float64(s.BytesMoved()*8) / c.BandwidthBps * float64(time.Second))
	return transfer + time.Duration(s.NetworkRounds)*c.RTT
}

// CostSeconds is Cost expressed in seconds, convenient for figure output.
func (c CostModel) CostSeconds(s Stats) float64 {
	return c.Cost(s).Seconds()
}
