package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/telemetry"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body)
}

// TestHTTPEndpoints serves the observability endpoints for a disk-backed
// server that has seen traffic, and checks that /metrics holds the store,
// session, broker and disk families, that /debug/vars holds exactly the
// same family names, and that /debug/trace is a JSON array.
func TestHTTPEndpoints(t *testing.T) {
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
	c, err := remote.Dial(remote.ClientOptions{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Create("t1", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{7}, 16)
	if err := st.WriteMany([]int64{0, 1, 2}, [][]byte{blk, blk, blk}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadMany([]int64{2, 0}); err != nil {
		t.Fatal(err)
	}

	hb, err := startHTTP("127.0.0.1:0", srv, dir)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + hb.String()
	if got := get(t, base+"/healthz"); got != "ok\n" {
		t.Fatalf("/healthz = %q", got)
	}

	var promNames []string
	for _, line := range strings.Split(get(t, base+"/metrics"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			promNames = append(promNames, f[2])
		}
	}
	for _, prefix := range []string{"ojoin_store_", "ojoin_sessions_", "ojoin_broker_", "ojoin_disk_"} {
		found := false
		for _, n := range promNames {
			found = found || strings.HasPrefix(n, prefix)
		}
		if !found {
			t.Fatalf("/metrics has no %s* family: %v", prefix, promNames)
		}
	}

	var vars struct {
		Families []telemetry.Family `json:"ojoinserver_metrics"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	var varNames []string
	for _, f := range vars.Families {
		varNames = append(varNames, f.Name)
	}
	sort.Strings(promNames)
	sort.Strings(varNames)
	if strings.Join(promNames, " ") != strings.Join(varNames, " ") {
		t.Fatalf("/debug/vars families %v, /metrics families %v", varNames, promNames)
	}

	var spans []telemetry.ServerSpan
	if err := json.Unmarshal([]byte(get(t, base+"/debug/trace")), &spans); err != nil || spans == nil {
		t.Fatalf("/debug/trace is not a JSON array: %v", err)
	}
}
