package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never succeeded: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestObsEndpoints starts a two-node cluster with -obs-addr on node 1,
// commits transactions across both sites through node 1's client API, and
// scrapes /metrics, /healthz and /debug/trace — the CI smoke test for the
// observability layer. The transactions span two sites because a cohort of
// one commits in one phase and runs no vote round.
func TestObsEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin, dir := buildNode(t)
	addrs := localAddrs(freePorts(t, 4))
	cluster, clientAddr, obsAddr := addrs[:2], addrs[2], addrs[3]
	startNode(t, bin, nodeArgs(1, cluster, dir,
		"-client", clientAddr,
		"-obs-addr", obsAddr,
	)...)
	startNode(t, bin, nodeArgs(2, cluster, dir)...)

	cl := dialAPI(t, clientAddr)
	defer cl.conn.Close()
	waitListening(t, cluster[1])
	for i := 0; i < 3; i++ {
		commitAt(t, cl, fmt.Sprintf("k%d", i), "v", 1, 2)
	}

	// The votes phase is observed at decision time; DEC-ACK settlement may
	// lag a moment, so poll until the core series carry samples.
	var metricsBody string
	deadline := time.Now().Add(10 * time.Second)
	for {
		metricsBody = httpGet(t, "http://"+obsAddr+"/metrics")
		if strings.Contains(metricsBody,
			`engine_phase_latency_seconds_count{phase="votes",protocol="3PC"} 3`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed 3 vote rounds:\n%s", metricsBody)
		}
		time.Sleep(100 * time.Millisecond)
	}
	for _, want := range []string{
		// Per-phase commit latency for the active protocol, and the full
		// schema (both kinds) even though only 3PC has samples.
		`engine_phase_latency_seconds{phase="votes",protocol="3PC",quantile="0.5"}`,
		`engine_phase_latency_seconds{phase="log_force",protocol="3PC",quantile="0.5"}`,
		`engine_phase_latency_seconds{phase="votes",protocol="2PC",quantile="0.5"}`,
		`engine_commit_latency_seconds_count{outcome="committed",protocol="3PC"} 3`,
		`engine_resolutions_total{outcome="committed",protocol="3PC"} 3`,
		"engine_transactions_tracked{site=\"1\"}",
		// WAL series.
		"# TYPE wal_batch_records summary",
		"# TYPE wal_sync_latency_seconds summary",
		"wal_log_bytes_total",
		// Transport series: drops split by cause, plus the coalescing
		// histogram fed from the writer path.
		"# TYPE transport_dropped_total counter",
		`transport_dropped_total{cause="dial"}`,
		`transport_dropped_total{cause="write"}`,
		`transport_dropped_total{cause="inbox_overflow"}`,
		`transport_dropped_total{cause="queue_full"}`,
		"# TYPE transport_batch_msgs summary",
		"# TYPE transport_redials_total counter",
		"transport_inbox_depth",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics body:\n%s", metricsBody)
	}

	health := httpGet(t, "http://"+obsAddr+"/healthz")
	var got map[string]any
	if err := json.Unmarshal([]byte(health), &got); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, health)
	}
	if got["status"] != "ok" || got["protocol"] != "3PC" || got["site"] != float64(1) {
		t.Fatalf("/healthz = %v", got)
	}

	tr := httpGet(t, "http://"+obsAddr+"/debug/trace")
	if !strings.Contains(tr, "events retained") || !strings.Contains(tr, "tx=") {
		t.Fatalf("/debug/trace missing protocol events:\n%s", tr)
	}
}
