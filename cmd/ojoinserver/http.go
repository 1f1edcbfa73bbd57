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
	"oblivjoin/internal/telemetry"
)

// startHTTP serves the observability endpoints next to the block protocol:
//
//	/healthz      liveness probe ("ok")
//	/metrics      Prometheus text exposition of the server's metric
//	              families (remote.Server.Metrics) and, with -data-dir, the
//	              directory's (diskstore.Dir.Metrics)
//	/debug/trace  recent server spans as JSON, ?trace=<id> filters to one
//	              distributed trace (see DESIGN.md §2.13)
//	/debug/vars   the same families as expvar JSON
//	/debug/pprof  the standard pprof profiles
//
// Counter snapshots are atomic reads and histogram observation is
// lock-free, so scraping mid-join never contends with request serving.
// The endpoints expose only aggregate request counts, op kinds, and
// timings — quantities the untrusted server observes anyway, so nothing
// beyond Definition 1's leakage is published.
//
// The families are published to expvar as "ojoinserver_metrics", and
// expvar.Publish panics on a duplicate name, so startHTTP runs once per
// process.
func startHTTP(addr string, srv *remote.Server, dir *diskstore.Dir) (net.Addr, error) {
	metrics := func() []telemetry.Family {
		fams := srv.Metrics()
		if dir != nil {
			fams = append(fams, dir.Metrics()...)
		}
		return fams
	}
	expvar.Publish("ojoinserver_metrics", expvar.Func(func() any { return metrics() }))
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, metrics()...) //nolint:errcheck // the client went away
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
