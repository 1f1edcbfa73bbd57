package oblivjoin

import (
	"reflect"
	"testing"

	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/telemetry"
)

// timingFamilies are the families the leak audit does not compare across
// runs, each with the reason: their values are wall-clock, which the
// server measures for itself and Definition 1 does not cover.
var timingFamilies = map[string]string{
	"ojoin_op_duration_seconds":             "per-op service time is wall-clock",
	"ojoin_broker_queue_wait_seconds":       "queue wait is wall-clock",
	"ojoin_store_io_seconds":                "store execution time is wall-clock",
	"ojoin_broker_wait_seconds_total":       "accumulated queue wait is wall-clock",
	"ojoin_broker_store_wait_seconds_total": "accumulated queue wait is wall-clock",
	"ojoin_disk_wal_fsync_seconds":          "fsync latency is wall-clock",
	"ojoin_disk_seg_fsync_seconds":          "fsync latency is wall-clock",
}

// metricsRun runs one sort-merge join at EvictionBatch 1 through the
// facade against a fresh loopback server backed by a diskstore.Dir, and
// returns every family the server and the directory export, with the
// names of the stores the client created.
func metricsRun(t *testing.T, passengers, watch *Relation) ([]telemetry.Family, []string) {
	t.Helper()
	dir, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv := remote.NewServer(remote.ServerOptions{OpenStore: dir.Opener()})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	db := NewDatabase(Config{BlockPayload: 512, EvictionBatch: 1})
	defer db.Close()
	for _, rel := range []*Relation{passengers, watch} {
		if err := db.AddTable(rel, "passport"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ConnectRemote(addr.String()); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	res, err := db.SortMergeJoin("passengers", "passport", "watchlist", "passport")
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 4 {
		t.Fatalf("join returned %d records, want 4", res.RealCount)
	}
	return append(srv.Metrics(), dir.Metrics()...), srv.StoreNames()
}

// TestMetricsArePublic is the registry's leak audit. Two runs share public
// geometry — table sizes, payload widths, output size — and differ in
// every private key and value. Every label must be one the registry
// allows, with a value that is a created store name or a wire op name
// (this deployment has no shards and no sessions), and every sample that
// is not a timing must be equal across the two runs.
func TestMetricsArePublic(t *testing.T) {
	passengers, watch := demoRelations()
	a, storesA := metricsRun(t, passengers, watch)

	// Same sizes, other contents: other passports match, in other places.
	for i := range passengers.Tuples {
		passengers.Tuples[i].Values = []int64{int64(5000 - 7*i), int64(i % 3)}
	}
	for i, p := range []int64{4972, 4986, 4986, 4804, 1} {
		watch.Tuples[i].Values = []int64{p, 9}
	}
	b, _ := metricsRun(t, passengers, watch)

	allowed := map[string]map[string]bool{"store": {}, "op": {}, "shard": {}, "addr": {}, "session": {}, "tenant": {}, "le": {}}
	for _, s := range storesA {
		allowed["store"][s] = true
	}
	for op := remote.OpReadMany; op <= remote.OpTrace; op++ {
		allowed["op"][op.String()] = true
	}
	if len(a) != len(b) {
		t.Fatalf("runs export %d and %d families", len(a), len(b))
	}
	skipped := 0
	for i, fa := range a {
		fb := b[i]
		if fa.Name != fb.Name || fa.Type != fb.Type || fa.Help != fb.Help {
			t.Fatalf("family %d differs across runs: %s vs %s", i, fa.Name, fb.Name)
		}
		for _, s := range fa.Samples {
			for j := 0; j+1 < len(s.Labels); j += 2 {
				name, value := s.Labels[j], s.Labels[j+1]
				values, ok := allowed[name]
				if !ok {
					t.Fatalf("%s: label %q is not in the registry's label set", fa.Name, name)
				}
				if !values[value] {
					t.Fatalf("%s: label %s=%q is not a created store, an op or a shard", fa.Name, name, value)
				}
			}
		}
		if reason, ok := timingFamilies[fa.Name]; ok {
			t.Logf("skip %s: %s", fa.Name, reason)
			skipped++
			continue
		}
		if fa.Type == telemetry.HistogramType || fa.Seconds {
			t.Fatalf("%s is a timing family with no skip reason", fa.Name)
		}
		if !reflect.DeepEqual(fa.Samples, fb.Samples) {
			t.Fatalf("%s depends on private contents:\n%+v\n%+v", fa.Name, fa.Samples, fb.Samples)
		}
	}
	if skipped != len(timingFamilies) {
		t.Fatalf("skipped %d of %d timing families: a skip names no family", skipped, len(timingFamilies))
	}
}
