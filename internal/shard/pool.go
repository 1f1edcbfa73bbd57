package shard

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

// Stat is one shard's cumulative fan-out traffic across every store of a
// Pool: how many sub-batches it was sent and how many blocks they carried.
// These are the quantities shard s observes on its own wire — a projection
// of the global (already-public) schedule, so exposing them leaks nothing
// beyond Definition 1.
type Stat struct {
	Addr    string
	Batches int64
	Blocks  int64
}

// Stats holds per-shard fan-out counters and latency histograms, shared
// by every Router a Pool opens. Safe for concurrent use.
type Stats struct {
	batches []atomic.Int64
	blocks  []atomic.Int64
	hists   []*telemetry.Histogram
}

// NewStats allocates counters for n shards.
func NewStats(n int) *Stats {
	s := &Stats{
		batches: make([]atomic.Int64, n),
		blocks:  make([]atomic.Int64, n),
		hists:   make([]*telemetry.Histogram, n),
	}
	for i := range s.hists {
		s.hists[i] = telemetry.NewHistogram()
	}
	return s
}

// Shards returns the shard count the counters cover.
func (s *Stats) Shards() int { return len(s.batches) }

func (s *Stats) add(shard, blocks int, d time.Duration) {
	s.batches[shard].Add(1)
	s.blocks[shard].Add(int64(blocks))
	s.hists[shard].Observe(d)
}

// Skew returns the max/mean ratio of per-shard block counts — 1.0 is a
// perfectly balanced stripe, higher means one shard carries dispropor-
// tionate traffic. Returns 0 when no blocks have moved.
func Skew(stats []Stat) float64 {
	var total, max int64
	for _, st := range stats {
		total += st.Blocks
		if st.Blocks > max {
			max = st.Blocks
		}
	}
	if total == 0 || len(stats) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(stats))
	return float64(max) / mean
}

// Reset zeroes every counter and histogram (benchmarks reset after setup,
// mirroring Meter.Reset: upload traffic is not query cost).
func (s *Stats) Reset() {
	for i := range s.batches {
		s.batches[i].Store(0)
		s.blocks[i].Store(0)
		s.hists[i].Reset()
	}
}

// Pool owns one transport per shard and provisions logical stores over
// them: Opener returns Routers whose sub-stores are created under the same
// name, with the striped share of the slots, on every shard.
type Pool struct {
	openers []storage.Opener
	clients []*remote.Client // non-nil only for DialPool pools
	addrs   []string
	meter   *storage.Meter
	stats   *Stats
}

// NewPool builds a pool over arbitrary per-shard backends (one opener per
// shard — in-process stores in tests, remote clients in production). The
// meter receives the logical one-round-per-batch accounting for every
// store the pool opens; the per-shard backends must not meter themselves.
func NewPool(openers []storage.Opener, meter *storage.Meter) (*Pool, error) {
	if len(openers) == 0 {
		return nil, fmt.Errorf("shard: pool needs at least one shard")
	}
	return &Pool{openers: openers, meter: meter, stats: NewStats(len(openers))}, nil
}

// DialPool connects one remote client per address. opts.Addr is taken from
// addrs, and opts.Meter becomes the pool's LOGICAL meter (the per-shard
// clients are dialed meterless — the Router accounts each striped batch
// as one round with global indices, which is the whole point).
func DialPool(addrs []string, opts remote.ClientOptions) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: pool needs at least one shard address")
	}
	meter := opts.Meter
	opts.Meter = nil
	p := &Pool{meter: meter, stats: NewStats(len(addrs)), addrs: addrs}
	for _, addr := range addrs {
		o := opts
		o.Addr = addr
		c, err := remote.Dial(o)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("shard: dialing %s: %w", addr, err)
		}
		p.clients = append(p.clients, c)
		p.openers = append(p.openers, c.Opener())
	}
	return p, nil
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.openers) }

// Clients returns the per-shard remote clients (nil for NewPool pools).
func (p *Pool) Clients() []*remote.Client { return p.clients }

// Stats returns the per-shard fan-out counters, with addresses filled in
// when the pool was dialed.
func (p *Pool) Stats() []Stat {
	out := make([]Stat, len(p.stats.batches))
	for i := range out {
		out[i] = Stat{Batches: p.stats.batches[i].Load(), Blocks: p.stats.blocks[i].Load()}
		if i < len(p.addrs) {
			out[i].Addr = p.addrs[i]
		}
	}
	return out
}

// ResetStats zeroes the per-shard counters.
func (p *Pool) ResetStats() { p.stats.Reset() }

// Opener returns a storage.Opener that provisions every named store as a
// Router over all shards — the drop-in backend for table.Options,
// oram.PathConfig, and the access scheduler above them.
func (p *Pool) Opener() storage.Opener {
	return func(name string, slots int64, blockSize int) (storage.Store, error) {
		subs := make([]storage.Store, len(p.openers))
		for s, open := range p.openers {
			st, err := open(name, LocalSlots(slots, s, len(p.openers)), blockSize)
			if err != nil {
				return nil, fmt.Errorf("shard %d: opening %q: %w", s, name, err)
			}
			subs[s] = st
		}
		return New(RouterConfig{
			Name: name, Slots: slots, BlockSize: blockSize,
			Subs: subs, Meter: p.meter, Stats: p.stats,
		})
	}
}

// SetFlight attaches a trace-context carrier to every per-shard client
// (DialPool pools only; NewPool backends are in-process and carry no wire
// trace). Store requests on every shard are then stamped from the same
// flight, so one trace ID spans the whole fan-out.
func (p *Pool) SetFlight(f *telemetry.Flight) {
	for _, c := range p.clients {
		c.SetFlight(f)
	}
}

// FetchServerSpans retrieves each shard server's buffered spans for one
// trace (0 = everything), indexed by shard. NewPool pools return nil —
// there is no server to ask.
func (p *Pool) FetchServerSpans(traceID uint64) ([][]telemetry.ServerSpan, error) {
	if len(p.clients) == 0 {
		return nil, nil
	}
	out := make([][]telemetry.ServerSpan, len(p.clients))
	for s, c := range p.clients {
		spans, err := c.FetchServerSpans(traceID)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		out[s] = spans
	}
	return out, nil
}

// StartSessions opens one tenant session per shard server (DialPool pools
// only), so the striped sub-stores live in the tenant's namespace on every
// shard. Sessions are independent per server; a saturated shard reports
// remote.ErrBusy like any other.
func (p *Pool) StartSessions(tenant string, idle time.Duration) error {
	for s, c := range p.clients {
		if err := c.StartSession(tenant, idle); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Close releases every per-shard client (ending their sessions). NewPool
// pools have nothing to release.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Metrics returns the router's ojoin_shard_* families (the client-side
// counterpart of ojoinserver's ojoin_store_* families): the shard count,
// per-shard sub-batches and blocks, the block skew ratio, and per-shard
// histograms of the time from split to join of each sub-share.
func (p *Pool) Metrics() []telemetry.Family {
	stats := p.Stats()
	count := telemetry.NewGauge("ojoin_shard_count", "Shards the router fans out to.")
	count.Add(float64(len(stats)))
	batches := telemetry.NewCounter("ojoin_shard_batches_total", "Sub-batches sent to the shard.")
	blocks := telemetry.NewCounter("ojoin_shard_blocks_total", "Blocks carried by those sub-batches.")
	latency := telemetry.NewHistogramFamily("ojoin_shard_latency_seconds", "Time from split to join of each sub-share sent to the shard.")
	for s, st := range stats {
		id := strconv.Itoa(s)
		batches.Add(float64(st.Batches), "shard", id, "addr", st.Addr)
		blocks.Add(float64(st.Blocks), "shard", id, "addr", st.Addr)
		latency.AddHist(p.stats.hists[s].Snapshot(), "shard", id, "addr", st.Addr)
	}
	skew := telemetry.NewGauge("ojoin_shard_skew_ratio", "Max/mean per-shard block traffic (1.0 = balanced stripe).")
	skew.Add(Skew(stats))
	return []telemetry.Family{count, batches, blocks, skew, latency}
}
