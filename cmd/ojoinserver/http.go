package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/remote"
)

// startHTTP serves the observability endpoints next to the block protocol:
//
//	/healthz      liveness probe ("ok")
//	/metrics      Prometheus text exposition: per-store counters, session
//	              and broker tallies (aggregate and per store), per-op
//	              latency histograms with the queue-wait / store-I/O
//	              decomposition, and (with -data-dir) the persistence
//	              counters plus the log and segment fsync latency
//	              histograms
//	/debug/trace  recent server spans as JSON, ?trace=<id> filters to one
//	              distributed trace (see DESIGN.md §2.13)
//	/debug/vars   the same counters as expvar JSON
//	/debug/pprof  the standard pprof profiles
//
// Counter snapshots are atomic reads and histogram observation is
// lock-free, so scraping mid-join never contends with request serving.
// The endpoints expose only aggregate request counts, op kinds, and
// timings — quantities the untrusted server observes anyway, so nothing
// beyond Definition 1's leakage is published.
func startHTTP(addr string, srv *remote.Server, dir *diskstore.Dir) (net.Addr, error) {
	expvar.Publish("ojoinserver_stores", expvar.Func(func() any {
		_, counts := srv.CountsAll()
		return counts
	}))
	if dir != nil {
		expvar.Publish("ojoinserver_disk", expvar.Func(func() any {
			_, perStore, _ := dir.Stats()
			return perStore
		}))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	expvar.Publish("ojoinserver_sessions", expvar.Func(func() any {
		return srv.Sessions().Snapshot()
	}))
	// Per-session rows: ID, tenant, and traffic so far. All quantities the
	// untrusted server observes on the wire anyway.
	expvar.Publish("ojoinserver_session_table", expvar.Func(func() any {
		type row struct {
			ID       int64  `json:"id"`
			Tenant   string `json:"tenant"`
			Requests int64  `json:"requests"`
			Stores   int    `json:"stores"`
		}
		var rows []row
		for _, s := range srv.Sessions().Sessions() {
			rows = append(rows, row{
				ID: s.ID(), Tenant: s.Tenant(),
				Requests: s.Requests(), Stores: len(s.Touched()),
			})
		}
		return rows
	}))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		remote.WriteStoreMetrics(w, srv)
		remote.WriteSessionMetrics(w, srv)
		remote.WriteHistogramMetrics(w, srv)
		if dir != nil {
			diskstore.WriteMetrics(w, dir)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		var traceID uint64
		if v := r.URL.Query().Get("trace"); v != "" {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			traceID = id
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		remote.WriteTrace(w, srv, traceID) //nolint:errcheck // best-effort telemetry read
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, mux) //nolint:errcheck // exits when ln closes at shutdown
	return ln.Addr(), nil
}
