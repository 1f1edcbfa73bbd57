package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/query"
	"oblivjoin/internal/session"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

// setupReps is how often set-up is repeated in one run; setup_s is the
// median, because a single set-up is short and noisy.
const setupReps = 7

// system is one set-up instance of a workload: the server, if the workload
// has one, and its clients, sealed and warmed up.
type system struct {
	srv     *server
	clients []client
	sealMS  float64 // slowest client's AddTable+Seal
}

func (s *system) close() error {
	var first error
	for _, c := range s.clients {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	if s.srv != nil {
		if err := s.srv.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setupSystem is everything before the first timed query: server start or
// directory open, then per client NewDatabase, AddTable, Seal and one
// untimed warm-up query of each class. Clients set up concurrently, as
// independent tenants would. A non-nil rec builds the layered, decorated
// form of the same system.
func setupSystem(in *inputs, scratch string, rec *recorder, clients int) (sys *system, err error) {
	w := in.w
	sys = &system{clients: make([]client, clients)}
	defer func(built *system) {
		if err != nil {
			built.close()
		}
	}(sys)
	addr := ""
	if w.backend != backendMem {
		if sys.srv, err = startServer(w, scratch, rec); err != nil {
			return nil, err
		}
		addr = sys.srv.addr
	}
	errs := make([]error, clients)
	seal := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for i := range sys.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			var c client
			var err error
			if rec == nil && !w.sessions {
				c, err = newFacadeClient(in, addr)
			} else {
				lo := layeredOptions{addr: addr, rec: rec}
				if w.sessions {
					lo.tenant = "tenant" + strconv.Itoa(i)
				}
				c, err = newLayeredClient(in, lo)
			}
			if err != nil {
				errs[i] = err
				return
			}
			sys.clients[i] = c
			seal[i] = time.Since(start)
			for _, q := range in.warmups() {
				res, err := c.run(q)
				if err == nil {
					err = in.oracle.check(q, res)
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up %s: %w", q.key(), err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// Drop the clients that never came up so close does not trip on them.
	live := sys.clients[:0]
	for _, c := range sys.clients {
		if c != nil {
			live = append(live, c)
		}
	}
	sys.clients = live
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	for _, d := range seal {
		sys.sealMS = math.Max(sys.sealMS, ms(d))
	}
	return sys, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// corePhases are the span names internal/core gives a join's phases ("scan"
// is the index nested-loop, band and multiway joins' name for what the
// sort-merge join calls "merge").
var corePhases = map[string]bool{"load": true, "merge": true, "scan": true, "pad": true, "filter": true, "decode": true}

// classAgg sums what the queries of one class moved.
type classAgg struct {
	n              int
	blocks, rounds int64
	steps          int64
}

// pass is what one closed-loop pass over a system measured.
type pass struct {
	byClass  map[class][]float64 // latency samples, ms, wall clock as measured
	all      []float64
	refUS    []float64 // reference-kernel passes taken between the queries, µs
	qps      float64   // Σ over clients of queries ÷ that client's loop wall
	wall     time.Duration
	stats    storage.Stats // traffic of the timed queries, summed over clients
	perClass map[class]*classAgg
	errs     []error
	attempt  int

	hits, misses         int
	prepareBlocks        int64
	predicted, runBlocks int64 // planner prediction vs metered blocks, Run queries
	phases               map[string]time.Duration
	peakHeap             uint64
}

func newPass() *pass {
	return &pass{
		byClass: make(map[class][]float64), perClass: make(map[class]*classAgg),
		phases: make(map[string]time.Duration),
	}
}

// agg returns the class's totals, creating them on first use.
func (p *pass) agg(c class) *classAgg {
	a := p.perClass[c]
	if a == nil {
		a = &classAgg{}
		p.perClass[c] = a
	}
	return a
}

// merge adds one client's pass. clientWall is the client's whole loop, the
// result checks between its queries included: what a caller that looks at
// every result gets.
func (p *pass) merge(o *pass, clientWall time.Duration) {
	for c, vs := range o.byClass {
		p.byClass[c] = append(p.byClass[c], vs...)
	}
	p.all = append(p.all, o.all...)
	p.refUS = append(p.refUS, o.refUS...)
	if clientWall > 0 {
		p.qps += float64(len(o.all)) / clientWall.Seconds()
	}
	if clientWall > p.wall {
		p.wall = clientWall
	}
	p.stats = p.stats.Add(o.stats)
	for c, a := range o.perClass {
		t := p.agg(c)
		t.n += a.n
		t.blocks += a.blocks
		t.rounds += a.rounds
		t.steps += a.steps
	}
	p.errs = append(p.errs, o.errs...)
	p.attempt += o.attempt
	p.hits += o.hits
	p.misses += o.misses
	p.prepareBlocks += o.prepareBlocks
	p.predicted += o.predicted
	p.runBlocks += o.runBlocks
	for k, d := range o.phases {
		p.phases[k] += d
	}
	if o.peakHeap > p.peakHeap {
		p.peakHeap = o.peakHeap
	}
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// quantileOf returns the q-quantile (nearest rank) of samples.
func quantileOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// drive runs the closed loop: every client issues its next query only when
// the previous one has returned, whole cycles at a time, until stop says so
// (it is asked after each cycle with the cycles done and the time elapsed).
// Every result is checked against the oracle, and a reference pass records
// the machine's speed; both sit between two timed queries, outside every
// latency sample and inside the loop's wall.
func drive(in *inputs, sys *system, sampleHeap bool, stop func(cycles int, elapsed time.Duration) bool) *pass {
	total := newPass()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range sys.clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			p := newPass()
			ref := newRefKernel()
			sched := in.schedule(i)
			start := time.Now()
			for cycles := 0; !stop(cycles, time.Since(start)); cycles++ {
				for _, q := range sched.next() {
					p.attempt++
					ref.pass()
					before := c.stats()
					t0 := time.Now()
					res, err := c.run(q)
					d := time.Since(t0)
					delta := c.stats().Sub(before)
					if err != nil {
						p.errs = append(p.errs, fmt.Errorf("%s: %w", q.key(), err))
						continue
					}
					if err := in.oracle.check(q, res); err != nil {
						p.errs = append(p.errs, err)
						continue
					}
					p.all = append(p.all, ms(d))
					p.byClass[q.class] = append(p.byClass[q.class], ms(d))
					if res.phases != nil {
						phaseTimes(res.phases, corePhases, p.phases)
					}
					p.stats = p.stats.Add(delta)
					a := p.agg(q.class)
					a.n++
					a.blocks += delta.BlocksMoved()
					a.rounds += delta.NetworkRounds
					a.steps += res.steps
					p.hits += res.cacheHits
					p.misses += res.cacheMisses
					p.prepareBlocks += res.prepareBlocks
					if res.predictedBlocks > 0 {
						p.predicted += res.predictedBlocks
						p.runBlocks += delta.BlocksMoved() - res.prepareBlocks
					}
					if sampleHeap {
						var m runtime.MemStats
						runtime.ReadMemStats(&m)
						if m.HeapInuse > p.peakHeap {
							p.peakHeap = m.HeapInuse
						}
					}
				}
			}
			wall := time.Since(start)
			p.refUS = ref.passUS
			mu.Lock()
			total.merge(p, wall)
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	return total
}

// scratchDir returns the directory for the run's throw-away files (the disk
// workload's data directories). It lives under out when given, else under
// .bench_build in the working directory, and is removed by the caller.
func scratchDir(out string) (string, error) {
	base := out
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "scratch-")
}

// runEndToEnd measures a workload with tracing off: setup_s as the median
// of setupReps set-ups, then the closed loop for at least seconds and at
// least the workload's floor of cycles, on the last system set up.
func runEndToEnd(w workload, seed int64, seconds float64, out string) (*report, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(in, false)
	scratch, err := scratchDir(out)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var sys *system
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			// Each set-up starts from a collected heap, so that one
			// repetition's garbage is not the next one's GC cycle.
			runtime.GC()
		}
		start := time.Now()
		if sys, err = setupSystem(in, scratch, nil, w.clients); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.close()
	rep.set("setup_s", median(setups))

	limit := time.Duration(seconds * float64(time.Second))
	p := drive(in, sys, false, func(cycles int, elapsed time.Duration) bool {
		return cycles >= w.minCycles && elapsed >= limit
	})
	rep.Seconds = p.wall.Seconds()
	rep.Samples = len(p.all)
	rep.Attempt = p.attempt
	for _, e := range p.errs {
		rep.fail(e)
	}
	if len(p.all) == 0 {
		return rep, nil
	}
	queries := float64(len(p.all))
	rep.set("query_p50_ms", quantileOf(p.all, 0.50))
	rep.Info["query_p90_ms"] = quantileOf(p.all, 0.90)
	rep.Info["ref_kernel_us_p50"] = quantileOf(p.refUS, 0.50)
	rep.Info["ref_kernel_us_min"] = quantileOf(p.refUS, 0)
	rep.Info["ref_kernel_us_max"] = quantileOf(p.refUS, 1)
	for c, vs := range p.byClass {
		rep.Info[string(c)+"_p50_ms"] = quantileOf(vs, 0.50)
		rep.Info[string(c)+"_samples"] = float64(len(vs))
	}
	rep.set("queries_per_s", p.qps)
	rep.set("blocks_per_query", float64(p.stats.BlocksMoved())/queries)
	rep.set("rounds_per_query", float64(p.stats.NetworkRounds)/queries)
	var cloud int64
	for _, c := range sys.clients {
		cloud += c.cloudBytes()
	}
	rep.set("cloud_bytes_per_raw_byte", float64(cloud)/float64(in.rawBytes*int64(len(sys.clients))))
	for _, c := range w.cycle {
		if a := p.perClass[c]; a != nil && a.n > 0 {
			rep.Sizes["blocks_per_"+string(c)] = a.blocks / int64(a.n)
			rep.Sizes["rounds_per_"+string(c)] = a.rounds / int64(a.n)
		}
	}

	if w.restart {
		rep.Attempt++
		if _, _, err := restartCheck(in, sys, p); err != nil {
			rep.fail(fmt.Errorf("restart: %w", err))
		}
	}
	if w.backend == backendDisk {
		rep.Attempt++
		if err := sameAsMemory(in, p); err != nil {
			rep.fail(err)
		}
	}
	return rep, nil
}

// restartCheck is the durability check in the shape of
// TestJoinSurvivesServerRestart: shut the server down (drain, checkpoint),
// reopen the same directory on the same port, and re-run one sort-merge
// join on the same client handle. The result must equal the reference and
// move exactly the blocks and rounds it moved before the restart. (A crash
// that loses unsynced batches cannot be continued from, because the
// client's stash and position map are not durable; that case stays with
// the CrashFS sweep in internal/diskstore.)
func restartCheck(in *inputs, sys *system, p *pass) (recoverTime time.Duration, recovered int64, err error) {
	recoverTime, recovered, err = sys.srv.restart()
	if err != nil {
		return 0, 0, err
	}
	c := sys.clients[0]
	q := request{class: classSMJ}
	before := c.stats()
	res, err := c.run(q)
	if err != nil {
		return 0, 0, fmt.Errorf("join after restart: %w", err)
	}
	if err := in.oracle.check(q, res); err != nil {
		return 0, 0, fmt.Errorf("join after restart: %w", err)
	}
	delta := c.stats().Sub(before)
	a := p.perClass[classSMJ]
	if a == nil || a.n == 0 {
		return 0, 0, fmt.Errorf("no sort-merge join ran before the restart")
	}
	if delta.BlocksMoved()*int64(a.n) != a.blocks || delta.NetworkRounds*int64(a.n) != a.rounds {
		return 0, 0, fmt.Errorf("join after restart moved %d blocks in %d rounds, before it %d in %d",
			delta.BlocksMoved(), delta.NetworkRounds, a.blocks/int64(a.n), a.rounds/int64(a.n))
	}
	return recoverTime, recovered, nil
}

// sameAsMemory asserts that persistence sits below the access pattern:
// every query class of a disk-backed pass moved exactly the blocks and
// rounds the same query moves over in-process stores of the same geometry.
func sameAsMemory(in *inputs, p *pass) error {
	c, err := newFacadeClient(in, "")
	if err != nil {
		return fmt.Errorf("in-memory twin: %w", err)
	}
	defer c.close()
	for cl, a := range p.perClass {
		before := c.stats()
		if _, err := c.run(request{class: cl}); err != nil {
			return fmt.Errorf("in-memory twin %s: %w", cl, err)
		}
		d := c.stats().Sub(before)
		if d.BlocksMoved()*int64(a.n) != a.blocks || d.NetworkRounds*int64(a.n) != a.rounds {
			return fmt.Errorf("%s on disk moved %d blocks in %d rounds per query, in memory %d in %d",
				cl, a.blocks/int64(a.n), a.rounds/int64(a.n), d.BlocksMoved(), d.NetworkRounds)
		}
	}
	return nil
}

// serverSnap is the server-side counters a traced pass is bracketed with.
type serverSnap struct {
	requests int64
	ops      telemetry.HistogramSnapshot // all store ops merged
	broker   session.BrokerStats
	sessions session.Stats
	disk     diskstore.Stats
	fsync    telemetry.HistogramSnapshot
}

func (s *server) snap() serverSnap {
	sn := serverSnap{requests: s.srv.TotalRequests(), broker: s.srv.BrokerStats(), sessions: s.srv.Sessions().Snapshot()}
	for name, h := range s.srv.HistogramSnapshots() {
		if strings.HasPrefix(name, "op.") {
			sn.ops = sn.ops.Merge(h)
		}
	}
	if s.dir != nil {
		_, _, sn.disk = s.dir.Stats()
		sn.fsync = s.dir.FsyncHistogram()
	}
	return sn
}

// histSub returns the observations b has and a has not (a is the earlier
// snapshot of the same histogram).
func histSub(b, a telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if len(a.Counts) != len(b.Counts) {
		return b
	}
	out := telemetry.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts)), Sum: b.Sum - a.Sum, Count: b.Count - a.Count}
	for i := range b.Counts {
		out.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runTraced produces the per-layer numbers. It runs a fifth of the
// workload's queries twice — untraced on the system the end-to-end run
// measures, then on the layered, decorated form of it with spans recorded —
// asserts that both moved the same blocks and rounds, micro-times each
// layer's public functions at the workload's geometry, and sums those
// rungs against the measured query time.
func runTraced(w workload, seed int64, out string) (*report, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(in, true)
	scratch, err := scratchDir(out)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cycles := (w.minCycles + 4) / 5
	fixed := func(done int, _ time.Duration) bool { return done >= cycles }
	rep.Sizes["traced_cycles"] = int64(cycles)

	pu, err := untracedPass(in, scratch, rep, fixed)
	if err != nil || len(pu.all) == 0 {
		return rep, err
	}

	// Traced pass.
	rec := newRecorder()
	traced, err := setupSystem(in, scratch, rec, w.clients)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.close()
	var srv0 serverSnap
	if traced.srv != nil {
		srv0 = traced.srv.snap()
	}
	cli0, svr0 := rec.snapshot("client"), rec.snapshot("server")
	all0, idx0 := pathStatsOf(traced)
	pt := drive(in, traced, false, fixed)
	all1, idx1 := pathStatsOf(traced)
	cli, svr := rec.snapshot("client").sub(cli0), rec.snapshot("server").sub(svr0)
	rep.Attempt += pt.attempt
	for _, e := range pt.errs {
		rep.fail(e)
	}
	if len(pt.all) == 0 {
		return rep, nil
	}
	tq := float64(len(pt.all))
	rep.Samples = len(pt.all)
	rep.Seconds = pt.wall.Seconds()
	rep.set("oblivjoin.trace_overhead_frac", quantileOf(pt.all, 0.5)/quantileOf(pu.all, 0.5)-1)

	// The layered build must be the facade's twin: same blocks and rounds
	// per query class, exactly where the eviction schedule is fixed.
	rep.Attempt++
	if err := sameTraffic(w, pu, pt); err != nil {
		rep.fail(err)
	}

	for name, key := range map[string][]string{
		"core.load_ms": {"load"}, "core.merge_ms": {"merge", "scan"}, "core.pad_ms": {"pad"},
		"core.filter_ms": {"filter"}, "core.decode_ms": {"decode"},
	} {
		var d time.Duration
		for _, k := range key {
			d += pt.phases[k]
		}
		rep.set(name, ms(d)/tq)
	}

	queryNS := sum(pt.all) * 1e6
	rep.set("storage.busy_frac", float64(cli.BusyNS)/queryNS)

	// Every access downloads exactly one path, so the decorated read calls
	// count accesses on all ORAMs, the plan cache's prepared inputs
	// included; PathTelemetry reaches the base tables only.
	accesses := float64(cli.ReadCalls)
	flushes := all1.Flushes - all0.Flushes
	rep.set("oram.accesses_per_query", accesses/tq)
	rep.set("oram.dummy_frac", float64(all1.DummyAccesses-all0.DummyAccesses)/float64(all1.Accesses-all0.Accesses))
	rep.set("oram.stash_peak", float64(all1.StashPeak))
	// Rounds on the ORAM stores only: the query's output vector is not an
	// ORAM and is not behind the decorated opener.
	rep.set("oram.rounds_per_access", float64(cli.Calls)/accesses)
	if flushes > 0 {
		rep.set("oram.deduped_buckets_per_flush", float64(all1.DedupedBuckets-all0.DedupedBuckets)/float64(flushes))
		rep.set("oram.exchange_frac", float64(all1.Exchanges-all0.Exchanges)/float64(flushes))
	}

	if traced.srv == nil {
		rep.absent("remote")
		rep.absent("session")
		rep.absent("diskstore")
	} else {
		d := traced.srv.snap()
		ops := histSub(d.ops, srv0.ops)
		rep.set("remote.requests_per_query", float64(d.requests-srv0.requests)/tq)
		rep.set("remote.op_p50_us", us(ops.Quantile(0.50)))
		rep.set("remote.op_p99_us", us(ops.Quantile(0.99)))
		// What the client waited on its stores minus what the server spent
		// serving them is the wire, the codec and the scheduling between.
		rep.set("remote.transport_share", (float64(cli.BusyNS)-float64(ops.Sum))/queryNS)
		rounds := d.broker.Rounds - srv0.broker.Rounds
		if w.sessions {
			rep.set("session.contended_frac", float64(d.broker.Contended-srv0.broker.Contended)/float64(rounds))
			rep.set("session.queue_wait_ms_per_query", float64(d.broker.WaitNS-srv0.broker.WaitNS)/1e6/tq)
			rep.set("session.admission_rejected", float64(d.sessions.Rejected))
		} else {
			rep.absent("session")
		}
		if traced.srv.dir == nil {
			rep.absent("diskstore")
		} else {
			fs := histSub(d.fsync, srv0.fsync)
			written := d.disk.BlocksWritten - srv0.disk.BlocksWritten
			rep.set("diskstore.wal_fsyncs_per_query", float64(d.disk.WALFsyncs-srv0.disk.WALFsyncs)/tq)
			rep.set("diskstore.wal_bytes_per_block_written", float64(d.disk.WALBytes-srv0.disk.WALBytes)/float64(written))
			rep.set("diskstore.fsync_p50_us", us(fs.Quantile(0.5)))
			rep.set("diskstore.store_io_ms_per_query", float64(svr.BusyNS)/1e6/tq)
			rep.set("diskstore.checkpoints", float64(d.disk.Checkpoints-srv0.disk.Checkpoints))
			rep.set("diskstore.disk_bytes_per_raw_byte", float64(dirBytes(traced.srv.dataDir))/float64(in.rawBytes))
		}
	}

	if w.restart {
		rep.Attempt++
		recoverTime, recovered, err := restartCheck(in, traced, pt)
		if err != nil {
			rep.fail(fmt.Errorf("restart: %w", err))
		}
		rep.set("diskstore.recover_ms", ms(recoverTime))
		rep.set("diskstore.recovered_records", float64(recovered))
	}

	if w.sessions {
		// One client alone on the same server set-up: what a second session
		// adds is the ratio of the two throughputs.
		solo, err := setupSystem(in, scratch, nil, 1)
		if err != nil {
			return nil, fmt.Errorf("one-client set-up: %w", err)
		}
		p1 := drive(in, solo, false, fixed)
		if err := solo.close(); err != nil {
			return nil, err
		}
		rep.Attempt += p1.attempt
		for _, e := range p1.errs {
			rep.fail(e)
		}
		rep.set("session.qps_1client", p1.qps)
		rep.set("session.scaling_2over1", pu.qps/p1.qps)
	}

	rg, err := measureRungs(in, scratch)
	if err != nil {
		return nil, fmt.Errorf("rungs: %w", err)
	}
	rg.report(rep)
	rep.ladder(w, rg, ladderCounts{
		queries: tq, queryNS: queryNS / tq,
		store: cli, indexAccesses: float64(idx1.Accesses - idx0.Accesses),
		colds: float64(len(pt.byClass[classCold])), runs: runQueries(pt),
	})

	if out != "" {
		if err := rec.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// untracedPass runs the traced run's first pass on the system the
// end-to-end run measures: the baseline for trace overhead, the per-class
// latencies, the plan cache's numbers and the runtime's allocation and
// memory numbers.
func untracedPass(in *inputs, scratch string, rep *report, stop func(int, time.Duration) bool) (*pass, error) {
	w := in.w
	plain, err := setupSystem(in, scratch, nil, w.clients)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer plain.close()
	first := plain.clients[0]
	if w.cfg.EnableMultiway {
		// The db.Run workload reaches its steady state — a full plan cache,
		// every cold query evicting the least recently used input — only
		// after 60 cycles. A fifth of the workload never gets there, so the
		// pass starts from a cache filled with constants no query uses.
		// The hot constants are touched last, as they are in the steady state.
		fill := func(q request) error {
			_, err := first.run(q)
			return err
		}
		for v := int64(-2); err == nil && first.cacheStats().Entries < query.DefaultMaxEntries; v-- {
			err = fill(request{classCold, v})
		}
		for _, v := range in.hot {
			if err == nil {
				err = fill(request{classWarm, v})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("filling the plan cache: %w", err)
		}
	}
	cache0 := first.cacheStats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	pu := drive(in, plain, true, stop)
	runtime.ReadMemStats(&m1)
	rep.Attempt = pu.attempt
	for _, e := range pu.errs {
		rep.fail(e)
	}
	if len(pu.all) == 0 {
		return pu, nil
	}
	rep.set("oblivjoin.seal_ms", plain.sealMS)
	var clientBytes int64
	for _, c := range plain.clients {
		clientBytes += c.clientBytes()
	}
	rep.set("oblivjoin.client_bytes", float64(clientBytes))
	nq := float64(len(pu.all))
	rep.set("runtime.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/nq)
	rep.set("runtime.alloc_mb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/nq/(1<<20))
	rep.set("runtime.gc_cpu_frac", m1.GCCPUFraction)
	rep.set("runtime.peak_heap_mb", float64(pu.peakHeap)/(1<<20))
	rep.set("runtime.peak_rss_mb", peakRSSMB())
	rep.set("oblivjoin.smj_p50_ms", quantileOf(pu.byClass[classSMJ], 0.5))
	rep.set("oblivjoin.inlj_p50_ms", quantileOf(pu.byClass[classINLJ], 0.5))
	rep.set("oblivjoin.query_p90_ms", quantileOf(pu.all, 0.9))
	var steps int64
	for _, a := range pu.perClass {
		steps += a.steps
	}
	rep.set("core.steps_per_query", float64(steps)/nq)
	if !w.cfg.EnableMultiway {
		rep.absent("query")
		rep.absent("operators")
		return pu, nil
	}
	rep.set("query.cold_p50_ms", quantileOf(pu.byClass[classCold], 0.5))
	rep.set("query.warm_p50_ms", quantileOf(pu.byClass[classWarm], 0.5))
	rep.set("query.multiway_p50_ms", quantileOf(pu.byClass[classMultiway], 0.5))
	rep.set("query.band_p50_ms", quantileOf(pu.byClass[classBand], 0.5))
	cache := first.cacheStats()
	hits, misses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses
	rep.set("query.cache_hit_ratio", float64(hits)/float64(hits+misses))
	rep.set("query.cache_evictions", float64(cache.Evictions-cache0.Evictions))
	if colds := len(pu.byClass[classCold]); colds > 0 {
		rep.set("query.prepare_blocks_per_cold", float64(pu.prepareBlocks)/float64(colds))
	}
	rep.set("query.predicted_over_measured_blocks", float64(pu.predicted)/float64(pu.runBlocks))
	// PlanQuery on a cached shape.
	t, err := tryMeasure(200, func() error { return first.plan(request{classWarm, in.hot[0]}) })
	if err != nil {
		return nil, fmt.Errorf("PlanQuery: %w", err)
	}
	rep.set("query.plan_us", us(t.perOp))
	return pu, nil
}

func runQueries(p *pass) float64 {
	n := 0
	for _, c := range []class{classCold, classWarm, classMultiway, classBand} {
		n += len(p.byClass[c])
	}
	return float64(n)
}

// pathStatsOf sums the clients' Path-ORAM telemetry: over all ORAMs of the
// base tables, and over their index ORAMs alone.
func pathStatsOf(sys *system) (all, index oram.PathStats) {
	for _, c := range sys.clients {
		d, i := c.(*layeredClient).pathStats()
		addPathStats(&all, d)
		addPathStats(&all, i)
		addPathStats(&index, i)
	}
	return all, index
}

// sameTraffic compares the per-class blocks and rounds of the untraced and
// the traced pass. Rounds must agree exactly. Blocks must agree exactly where
// EvictionBatch=1 fixes the schedule; with deferred eviction the buckets two
// random paths share are written once, so blocks may differ by the few
// percent that sharing varies by.
func sameTraffic(w workload, untraced, traced *pass) error {
	for c, a := range untraced.perClass {
		b := traced.perClass[c]
		if b == nil || b.n == 0 || a.n == 0 {
			return fmt.Errorf("class %s ran in one pass only", c)
		}
		if a.rounds*int64(b.n) != b.rounds*int64(a.n) {
			return fmt.Errorf("%s: the traced build took %.1f rounds per query, the untraced %.1f", c,
				float64(b.rounds)/float64(b.n), float64(a.rounds)/float64(a.n))
		}
		x, y := float64(a.blocks)/float64(a.n), float64(b.blocks)/float64(b.n)
		tol := 0.0
		if w.cfg.EvictionBatch > 1 {
			tol = 0.05 * x
		}
		if math.Abs(x-y) > tol {
			return fmt.Errorf("%s: the traced build moved %.1f blocks per query, the untraced %.1f", c, y, x)
		}
	}
	return nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	// A file that vanishes mid-walk (a checkpoint truncating a WAL) is
	// skipped, not an error: the number is a size estimate.
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where the
// platform has no /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
