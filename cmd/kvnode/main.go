// Command kvnode runs one site of a distributed key-value store over TCP:
// the commit engine (2PC, 3PC or Paxos Commit; central-site or
// decentralized) with a
// file-backed write-ahead log, a heartbeat failure detector, the lock-based
// store, and — optionally — a line-oriented client API through which this
// node coordinates distributed transactions.
//
//	kvnode -id 1 -listen :7101 -client :8101 \
//	       -peers "2=host:7102,3=host:7103" -wal /tmp/n1.wal -proto 3pc
//
// See internal/nodeapi for the client protocol. Kill a node mid-transaction
// to watch 2PC block and 3PC terminate; restart it with the same -wal to
// watch the recovery protocol resolve in-doubt transactions.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/failure"
	"nbcommit/internal/kv"
	"nbcommit/internal/metrics"
	"nbcommit/internal/nodeapi"
	"nbcommit/internal/obs"
	"nbcommit/internal/remote"
	"nbcommit/internal/shard"
	"nbcommit/internal/trace"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Fixed operating parameters. Every timer comes from clock.NewBudget(-timeout).
const (
	traceEvents   = 4096 // protocol trace ring size for /debug/trace
	shardsPerSite = 4    // shards per site in the default shard map
)

func main() {
	var (
		id         = flag.Int("id", 1, "site ID (unique, positive)")
		listen     = flag.String("listen", ":7101", "cluster listen address")
		clientAddr = flag.String("client", "", "client API listen address (empty: none)")
		peersFlag  = flag.String("peers", "", "peer sites: \"2=host:port,3=host:port\"")
		walPath    = flag.String("wal", "", "write-ahead log file (required)")
		protoFlag  = flag.String("proto", "3pc", "commit protocol: 2pc, 3pc, or paxos")
		paradigm   = flag.String("paradigm", "central", "central or decentralized")
		timeout    = flag.Duration("timeout", clock.DefaultBase, "protocol timeout, the base every other timer is derived from")
		shardFile  = flag.String("shardmap", "", "shard map file (empty: deterministic default map over the site list)")
		obsAddr    = flag.String("obs-addr", "", "observability HTTP listener serving /metrics, /healthz and /debug/trace (empty: none)")
	)
	flag.Parse()
	if *walPath == "" {
		log.Fatal("kvnode: -wal is required")
	}
	kind, err := engine.ParseProtocol(*protoFlag)
	if err != nil {
		log.Fatalf("kvnode: %v", err)
	}
	if *paradigm != "central" && *paradigm != "decentralized" {
		log.Fatalf("kvnode: unknown paradigm %q", *paradigm)
	}
	if kind == engine.PaxosCommit && *paradigm == "decentralized" {
		log.Fatal("kvnode: Paxos Commit has no decentralized variant")
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatal(err)
	}
	budget := clock.NewBudget(*timeout)

	// Observability: one registry collects WAL, transport and engine series;
	// the commit-path families are registered for every protocol kind so a
	// scrape always exposes the full schema (only the active kind gets
	// samples). Tracing uses a bounded ring, safe to leave on indefinitely.
	// Built before the endpoint so the transport can feed its batch-size
	// histogram from the writer path.
	reg := metrics.NewRegistry()
	reg.Help("transport_batch_msgs", "Messages per coalesced write.")
	batchHist := reg.Histogram("transport_batch_msgs")

	ep, err := transport.ListenTCPOpts(*id, *listen, peers, transport.TCPOptions{
		BatchSize: func(n int) { batchHist.Observe(time.Duration(n)) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	ep.SetBudget(budget)
	log.Printf("kvnode %d: cluster on %s (%s, %s)", *id, ep.Addr(), kind, *paradigm)

	reg.Help("transport_dropped_total", "Messages dropped, by cause: failed dial, broken write, inbox overflow, full send queue.")
	for _, c := range transport.DropCauses {
		reg.CounterFunc("transport_dropped_total", func() float64 { return float64(ep.DroppedCause(c)) }, "cause", c.String())
	}
	reg.Help("transport_redials_total", "Outbound dial attempts (connection churn).")
	reg.CounterFunc("transport_redials_total", func() float64 { return float64(ep.Redials()) })
	reg.Help("transport_inbox_depth", "Inbound messages queued but not yet consumed.")
	reg.GaugeFunc("transport_inbox_depth", func() float64 { return float64(ep.InboxDepth()) })
	reg.Help("transport_send_queue_depth", "Outbound messages queued per peer, awaiting the writer.")
	for p := range peers {
		reg.GaugeFunc("transport_send_queue_depth", func() float64 { return float64(ep.QueueDepth(p)) }, "peer", strconv.Itoa(p))
	}
	var (
		walBatchHist = reg.Histogram("wal_batch_records")
		walSyncHist  = reg.Histogram("wal_sync_latency_seconds")
		walBytes     = reg.Counter("wal_log_bytes_total")
	)
	reg.Help("wal_batch_records", "Records per group-commit batch.")
	reg.Help("wal_sync_latency_seconds", "Write+fsync duration per batch.")
	reg.Help("wal_log_bytes_total", "Bytes written to the log.")
	walMetrics := wal.Metrics{
		BatchRecords: func(n int) { walBatchHist.Observe(time.Duration(n)) },
		SyncLatency:  func(d time.Duration) { walSyncHist.Observe(d) },
		BatchBytes:   func(n int) { walBytes.Add(int64(n)) },
	}
	// Expose every protocol family so a scrape always sees the full schema;
	// the engine samples only the active kind's series.
	var engineMetrics *engine.Metrics
	for _, k := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
		m := engine.NewMetrics(reg, k)
		if k == kind {
			engineMetrics = m
		}
	}
	recorder := trace.NewBounded(traceEvents)

	ids := []int{*id}
	for p := range peers {
		ids = append(ids, p)
	}
	sort.Ints(ids)

	// The shard map must be identical at every node: either the same map
	// file is distributed to all of them, or every node derives the default
	// map from the (shared) site list.
	var smap *shard.Map
	if *shardFile != "" {
		smap, err = shard.Load(*shardFile)
		if err != nil {
			log.Fatalf("kvnode: %v", err)
		}
	} else {
		smap = shard.Default(ids, shardsPerSite)
	}
	log.Printf("kvnode %d: shard map v%d: %d shards over sites %v", *id, smap.Version, len(smap.Shards), smap.Sites())

	hb := failure.NewHeartbeat(*id, ids, budget.Heartbeat, budget.Suspicion, func(to int) {
		_ = ep.Send(transport.Message{To: to, Kind: failure.HeartbeatKind})
	})
	hb.Start()
	defer hb.Stop()

	// Compact the log before opening: recovery replays the whole file, so
	// garbage-collected transactions are dropped first. This is the only
	// compaction a node runs. A missing file is fine (first boot).
	if _, statErr := os.Stat(*walPath); statErr == nil {
		if kept, droppedRecs, cerr := wal.Compact(*walPath); cerr != nil {
			log.Fatalf("kvnode: compact %s: %v", *walPath, cerr)
		} else if droppedRecs > 0 {
			log.Printf("kvnode %d: compacted WAL: kept %d records, dropped %d", *id, kept, droppedRecs)
		}
	}
	logFile, err := wal.OpenFileLog(*walPath, wal.FileLogOptions{Metrics: walMetrics})
	if err != nil {
		log.Fatal(err)
	}
	defer logFile.Close()
	incarnation, err := wal.Boot(logFile)
	if err != nil {
		log.Fatalf("kvnode: boot record: %v", err)
	}
	log.Printf("kvnode %d: incarnation %d", *id, incarnation)

	store := kv.NewStore(kv.Options{LockTimeout: budget.LockWait})
	reg.Help("kv_mvcc_keys", "Keys with at least one committed version.")
	reg.GaugeFunc("kv_mvcc_keys", func() float64 { k, _ := store.VersionStats(); return float64(k) })
	reg.Help("kv_mvcc_versions", "Committed versions retained across all keys (GC trims below the stable timestamp).")
	reg.GaugeFunc("kv_mvcc_versions", func() float64 { _, v := store.VersionStats(); return float64(v) })
	go func() {
		for range time.Tick(budget.GC) {
			store.GC()
		}
	}()
	server := &remote.Server{
		Store: store, Send: ep.Send, Map: smap,
		Paradigm: *paradigm, CommitWait: budget.CommitWait,
	}
	client := remote.NewClient(ep.Send, budget.Call)
	client.MapVersion = smap.Version
	client.Incarnation = incarnation

	// Recover always: on an empty WAL it is a no-op; after a crash it
	// replays committed effects and launches the recovery protocol.
	site, err := engine.Recover(engine.Config{
		ID:       *id,
		Endpoint: ep,
		Log:      logFile,
		Resource: dtx.StoreResource{Store: store},
		Detector: hb,
		Protocol: kind,
		Timeout:  budget.Protocol,
		Trace:    recorder,
		Metrics:  engineMetrics,
		// Called on the endpoint's receive path, never from behind the
		// engine's event queue: a heartbeat or a reply is handled where it
		// arrives.
		Unhandled: func(m transport.Message) {
			switch m.Kind {
			case failure.HeartbeatKind:
				hb.Observe(m.From)
			case remote.KindOp:
				go server.Handle(m) // store ops may wait on locks
			case remote.KindReply:
				client.Deliver(m)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer site.Stop()
	server.SetSite(site) // forwarded commits coordinate on this engine
	if doubt := site.InDoubt(); len(doubt) > 0 {
		log.Printf("kvnode %d: recovering %d in-doubt transaction(s): %v", *id, len(doubt), doubt)
	}

	if *obsAddr != "" {
		bound, err := obs.ListenAndServe(*obsAddr, &obs.Server{
			Registry: reg,
			Trace:    recorder,
			Health: func() map[string]any {
				keys, versions := store.VersionStats()
				return map[string]any{
					"site":          *id,
					"protocol":      kind.String(),
					"paradigm":      *paradigm,
					"wal":           *walPath,
					"shard_version": smap.Version,
					"in_doubt":      len(site.InDoubt()),
					"tracked_txns":  len(site.Transactions()),
					// MVCC read-path state: where snapshot reads land
					// (stable_ts), the oldest unresolved prepare holding it
					// back (watermark, 0 when none), and chain bulk.
					"stable_ts":     store.StableTS(),
					"watermark":     store.Watermark(),
					"mvcc_keys":     keys,
					"mvcc_versions": versions,
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("kvnode %d: observability on %s (/metrics /healthz /debug/trace)", *id, bound)
	}

	if *clientAddr == "" {
		select {} // participant only
	}
	reg.Help("nodeapi_rejected_total", "Client sessions refused, by reason.")
	reg.Counter("nodeapi_rejected_total", "reason", "line_too_long") // in the schema from the first scrape
	api := &nodeapi.API{
		Self: *id, Site: site, Store: store,
		Client: client, Timeout: budget.Protocol, Incarnation: incarnation, Paradigm: *paradigm,
		Router:   &shard.Router{Map: smap},
		Rejected: func(reason string) { reg.Counter("nodeapi_rejected_total", "reason", reason).Inc() },
	}
	ln, err := net.Listen("tcp", *clientAddr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("kvnode %d: client API on %s", *id, ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go api.Serve(conn)
	}
}

func parsePeers(s string) (map[int]string, error) {
	peers := map[int]string{}
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kvp := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kvp) != 2 {
			return nil, fmt.Errorf("kvnode: bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kvp[0])
		if err != nil {
			return nil, fmt.Errorf("kvnode: bad peer id %q", kvp[0])
		}
		peers[id] = kvp[1]
	}
	return peers, nil
}
