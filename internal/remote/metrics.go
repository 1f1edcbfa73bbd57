package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"oblivjoin/internal/telemetry"
)

// This file renders the server's observability surfaces: the metric
// families behind /metrics and /debug/vars, and the JSON span batches
// behind OpTrace / /debug/trace. Everything rendered is a function of
// request sizes, kinds, and timing — quantities the untrusted server
// observes anyway, so nothing beyond Definition 1's leakage is published.

// Metrics returns the server's families: per-store request counters and a
// server total; the session table's admission counters and per-session
// traffic; the access broker's round, contention and queue-wait counters,
// aggregate and per guarded store; and the latency histograms — service
// time per share shape and stat, broker queue wait, and wrapped-store execution time.
func (s *Server) Metrics() []telemetry.Family {
	counter, gauge, hist := telemetry.NewCounter, telemetry.NewGauge, telemetry.NewHistogramFamily
	store := []telemetry.Family{
		counter("ojoin_store_requests_total", "Requests and exchange shares served against the store."),
		counter("ojoin_store_batch_reads_total", "Exchange shares that only read (e.g. ORAM path downloads)."),
		counter("ojoin_store_batch_writes_total", "Exchange shares that only write (e.g. ORAM path write-backs)."),
		counter("ojoin_store_blocks_read_total", "Individual blocks sent to clients."),
		counter("ojoin_store_blocks_written_total", "Individual blocks received from clients."),
	}
	names, counts := s.CountsAll()
	for _, n := range names {
		c := counts[n]
		for i, v := range []int64{c.Requests, c.BatchReads, c.BatchWrites, c.BlocksRead, c.BlocksWritten} {
			store[i].Add(float64(v), "store", n)
		}
	}
	total := counter("ojoin_server_requests_total", "RPCs served across all stores.")
	total.Add(float64(s.TotalRequests()))

	ss, bs := s.sessions.Snapshot(), s.broker.Stats()
	scalars := []telemetry.Family{
		gauge("ojoin_sessions_active", "Live client sessions."),
		gauge("ojoin_sessions_peak", "High-water concurrent session count."),
		counter("ojoin_sessions_opened_total", "Sessions admitted."),
		counter("ojoin_sessions_closed_total", "Sessions ended by their clients."),
		counter("ojoin_sessions_rejected_total", "Hellos refused at the admission cap."),
		counter("ojoin_sessions_expired_total", "Sessions reaped by their idle deadline."),
		counter("ojoin_sessions_requests_total", "Session-scoped requests served."),
		counter("ojoin_broker_rounds_total", "Batch rounds serialized by the ORAM access broker."),
		counter("ojoin_broker_contended_total", "Rounds that waited behind another session's round."),
		{Name: "ojoin_broker_wait_seconds_total", Help: "Total time rounds spent queued behind other sessions' rounds.", Type: telemetry.CounterType, Seconds: true},
		gauge("ojoin_broker_stores", "Stores owned by the ORAM access broker."),
	}
	for i, v := range []int64{int64(ss.Active), int64(ss.Peak), ss.Opened, ss.Closed, ss.Rejected, ss.Expired, ss.Requests,
		bs.Rounds, bs.Contended, bs.WaitNS, int64(bs.Stores)} {
		scalars[i].Add(float64(v))
	}

	perSession := []telemetry.Family{
		counter("ojoin_session_requests_total", "Requests served in the live session."),
		gauge("ojoin_session_stores", "Stores the live session has touched."),
	}
	for _, se := range s.sessions.Sessions() {
		id := strconv.FormatInt(se.ID(), 10)
		perSession[0].Add(float64(se.Requests()), "session", id, "tenant", se.Tenant())
		perSession[1].Add(float64(len(se.Touched())), "session", id, "tenant", se.Tenant())
	}

	guards := []telemetry.Family{
		counter("ojoin_broker_store_rounds_total", "Batch rounds serialized per guarded store."),
		counter("ojoin_broker_store_contended_total", "Rounds that waited, per guarded store."),
		{Name: "ojoin_broker_store_wait_seconds_total", Help: "Queue wait accumulated per guarded store.", Type: telemetry.CounterType, Seconds: true},
	}
	for _, g := range s.broker.Guards() {
		for i, v := range []int64{g.Rounds(), g.Contended(), g.WaitNS()} {
			guards[i].Add(float64(v), "store", g.Name())
		}
	}

	ops := hist("ojoin_op_duration_seconds", "Server-side service time per share shape and stat request.")
	for _, op := range timedOps {
		ops.AddHist(s.opHists[op].Snapshot(), "op", op.String())
	}
	queue := hist("ojoin_broker_queue_wait_seconds", "Time store rounds queued behind other sessions' rounds.")
	queue.AddHist(s.queueWait.Snapshot())
	storeIO := hist("ojoin_store_io_seconds", "Wrapped-store execution time per round.")
	storeIO.AddHist(s.storeIO.Snapshot())

	fams := append(append(store, total), scalars...)
	fams = append(append(fams, perSession...), guards...)
	return append(fams, ops, queue, storeIO)
}

// MarshalSpans encodes a server-span batch as JSON — the OpTrace payload
// and the /debug/trace response body.
func MarshalSpans(spans []telemetry.ServerSpan) ([]byte, error) {
	if spans == nil {
		spans = []telemetry.ServerSpan{}
	}
	return json.Marshal(spans)
}

// ParseSpans decodes a span batch produced by MarshalSpans.
func ParseSpans(data []byte) ([]telemetry.ServerSpan, error) {
	var spans []telemetry.ServerSpan
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("remote: parse spans: %w", err)
	}
	return spans, nil
}

// WriteTrace serves one /debug/trace response: the buffered span batch
// for traceID (0 = everything), as a JSON array.
func WriteTrace(w io.Writer, srv *Server, traceID uint64) error {
	data, err := MarshalSpans(srv.TraceSpans(traceID))
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
