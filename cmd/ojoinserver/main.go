// Command ojoinserver runs the untrusted block-store server the oblivious
// join client talks to over TCP. It hosts named fixed-geometry block stores
// (pre-registered with -store or created on demand by clients), executes
// reads and writes verbatim, and performs no other computation — the role
// MongoDB plays in the paper's testbed (Section 9.1).
//
// An injectable latency/fault model (-latency, -fail-every) shapes the
// transport so benchmark curves reproduce the paper's WAN round-trip cost
// argument and clients' retry paths can be exercised deterministically.
//
// With -http the server additionally serves live observability endpoints:
// /metrics (Prometheus text of every metric family, updated atomically
// while requests are in flight), /healthz, /debug/vars (the same families
// as expvar JSON), /debug/trace, and /debug/pprof. The per-store counters
// are still printed at shutdown.
//
// The server is multi-tenant: clients that open a session (remote.Client
// StartSession) get their stores qualified into a per-tenant namespace and
// their traffic serialized round-by-round through the ORAM access broker
// (internal/session). -max-sessions bounds the admission table — saturated
// hellos get a typed busy rejection — and -session-timeout reaps sessions
// whose clients went silent. Shutdown first drains live sessions (bounded
// by -drain-timeout) so no store is checkpointed mid-batch.
//
// With -data-dir the server is persistent: every store lives in a
// crash-safe segment file and two alternating write-ahead logs under the
// directory (internal/diskstore). Stores persisted by earlier runs are
// recovered at startup and re-hosted automatically; -sync-every N trades
// fewer fsyncs for what a power loss may do to the most recent N-1 batches
// (lose or tear them; a crash of the server process alone never does
// either). Without -data-dir stores are in-memory and vanish at exit.
//
// Example:
//
//	ojoinserver -addr 127.0.0.1:9042 -store t1.data:1024:4144 -latency 10ms -http 127.0.0.1:9080
//	ojoinserver -addr 127.0.0.1:9042 -data-dir /var/lib/ojoin -sync-every 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9042", "TCP address to listen on")
		latency   = flag.Duration("latency", 0, "added per-request latency (WAN model)")
		failEvery = flag.Int64("fail-every", 0, "inject a transient failure every Nth request (0 disables)")
		maxFrame  = flag.Int("max-frame", remote.DefaultMaxFrame, "maximum accepted frame size in bytes")
		maxBytes  = flag.Int64("max-store-bytes", 1<<30, "cap on dynamically created store footprint")
		httpAddr  = flag.String("http", "", "optional HTTP address serving /metrics, /healthz, and /debug/pprof")
		dataDir   = flag.String("data-dir", "", "directory for persistent stores (empty = in-memory)")
		syncEvery = flag.Int("sync-every", 1, "fsync the write-ahead log every Nth batch commit (group commit); above 1 a power loss may lose or tear the last N-1 batches")

		maxSessions    = flag.Int("max-sessions", 0, "admission cap on concurrent client sessions (0 = default 64)")
		sessionTimeout = flag.Duration("session-timeout", 0, "idle deadline after which a silent session is reaped (0 = default 2m)")
		drainTimeout   = flag.Duration("drain-timeout", 0, "how long shutdown waits for live sessions to end (0 = default 5s)")

		slowOp      = flag.Duration("slow-op-threshold", 0, "log a structured warning for requests slower than this (0 disables)")
		traceBuffer = flag.Int("trace-buffer", 0, "server span ring capacity for /debug/trace and OpTrace (0 = default 4096)")
	)
	var stores []string
	flag.Func("store", "pre-register a store as name:slots:blocksize (repeatable)", func(v string) error {
		stores = append(stores, v)
		return nil
	})
	flag.Parse()

	opts := remote.ServerOptions{
		MaxFrame:        *maxFrame,
		MaxStoreBytes:   *maxBytes,
		MaxSessions:     *maxSessions,
		SessionTimeout:  *sessionTimeout,
		DrainTimeout:    *drainTimeout,
		SlowOpThreshold: *slowOp,
		TraceBuffer:     *traceBuffer,
	}
	if *latency > 0 || *failEvery > 0 {
		opts.Faults = &remote.Shaper{Latency: *latency, FailEvery: *failEvery}
	}

	// With -data-dir every store — pre-registered, recovered, or created on
	// demand by clients — is file-backed and crash-safe.
	var dir *diskstore.Dir
	openStore := func(name string, slots int64, blockSize int) (storage.Store, error) {
		return storage.NewMemStore(name, slots, blockSize, nil), nil
	}
	if *dataDir != "" {
		var err error
		dir, err = diskstore.Open(*dataDir, diskstore.Options{SyncEvery: *syncEvery})
		if err != nil {
			log.Fatalf("ojoinserver: open data dir: %v", err)
		}
		opts.OpenStore = dir.Opener()
		openStore = opts.OpenStore
		_, perStore, total := dir.Stats()
		for _, name := range dir.Names() {
			st := dir.Get(name)
			s := perStore[name]
			log.Printf("recovered %s (%d × %d bytes; %d WAL records replayed, %d torn bytes discarded)",
				name, st.Len(), st.BlockSize(), s.RecoveredRecords, s.TornTailBytes)
		}
		if total.Recoveries > 0 {
			log.Printf("recovery: %d stores had unclean shutdowns (%d records replayed)",
				total.Recoveries, total.RecoveredRecords)
		}
	}

	srv := remote.NewServer(opts)
	if dir != nil {
		// Re-host everything recovered from the data directory.
		for _, name := range dir.Names() {
			if err := srv.Register(name, dir.Get(name)); err != nil {
				log.Fatalf("ojoinserver: %v", err)
			}
		}
	}
	for _, spec := range stores {
		name, slots, blockSize, err := parseStoreSpec(spec)
		if err != nil {
			log.Fatalf("ojoinserver: -store %q: %v", spec, err)
		}
		if dir != nil && dir.Get(name) != nil {
			continue // already recovered (and geometry-checked at creation)
		}
		st, err := openStore(name, slots, blockSize)
		if err != nil {
			log.Fatalf("ojoinserver: create %s: %v", name, err)
		}
		if err := srv.Register(name, st); err != nil {
			log.Fatalf("ojoinserver: %v", err)
		}
		log.Printf("hosting %s (%d × %d bytes)", name, slots, blockSize)
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("ojoinserver: listen: %v", err)
	}
	log.Printf("listening on %s", bound)
	if *httpAddr != "" {
		hb, err := startHTTP(*httpAddr, srv, dir)
		if err != nil {
			log.Fatalf("ojoinserver: http listen: %v", err)
		}
		log.Printf("observability on http://%s (/metrics, /healthz, /debug/pprof/)", hb)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down (draining sessions and in-flight requests)")
	// Server.Close refuses new sessions, waits for live ones to end (or
	// expire, bounded by -drain-timeout), drains in-flight requests, and
	// then closes (checkpoints) every hosted disk store; Dir.Close is the
	// idempotent backstop for stores the server never hosted.
	if err := srv.Close(); err != nil {
		log.Printf("ojoinserver: close: %v", err)
	}
	ss := srv.Sessions().Snapshot()
	bs := srv.BrokerStats()
	log.Printf("sessions: %d served (peak %d concurrent), %d rejected at cap, %d expired idle; broker: %d rounds over %d stores, %d contended",
		ss.Opened, ss.Peak, ss.Rejected, ss.Expired, bs.Rounds, bs.Stores, bs.Contended)
	if dir != nil {
		if err := dir.Close(); err != nil {
			log.Printf("ojoinserver: data dir close: %v", err)
		}
		_, _, total := dir.Stats()
		log.Printf("persistence: %d WAL records (%d bytes), %d WAL fsyncs, %d segment fsyncs, %d checkpoints",
			total.WALRecords, total.WALBytes, total.WALFsyncs, total.SegFsyncs, total.Checkpoints)
	}
	for _, name := range srv.StoreNames() {
		c := srv.Counts(name)
		log.Printf("%s: %d requests (%d batch reads, %d batch writes, %d exchanges); %d blocks down, %d blocks up",
			name, c.Requests, c.BatchReads, c.BatchWrites, c.Exchanges, c.BlocksRead, c.BlocksWritten)
	}
}

func parseStoreSpec(spec string) (name string, slots int64, blockSize int, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 || parts[0] == "" {
		return "", 0, 0, fmt.Errorf("want name:slots:blocksize")
	}
	slots, err = strconv.ParseInt(parts[1], 10, 64)
	if err != nil || slots <= 0 {
		return "", 0, 0, fmt.Errorf("bad slot count %q", parts[1])
	}
	bs, err := strconv.Atoi(parts[2])
	if err != nil || bs <= 0 {
		return "", 0, 0, fmt.Errorf("bad block size %q", parts[2])
	}
	return parts[0], slots, bs, nil
}
