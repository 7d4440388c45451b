// Command loadgen measures sustained commit throughput. It has four modes:
//
// -mode throughput (default): a closed loop of N concurrent client sessions
// drives distributed transactions through a 3-node in-process cluster whose
// sites run file-backed, fsync-enabled write-ahead logs, for 2PC, 3PC and
// Paxos Commit and with group commit on and off (off = one serialized
// write+fsync per record, the pre-group-commit baseline). Each scenario
// reports commits/sec, p50/p95/p99 commit latency, WAL batch statistics, and
// steady-state memory.
//
// -mode scaleout: a keyed (shard-routed) workload against clusters of
// increasing size, sweeping the fraction of cross-shard transactions, to
// show that commit cost follows the touched cohort, not the cluster (see
// scaleout.go).
//
// -mode transport: raw TCP transport throughput and latency over loopback,
// swept over body size (see transport.go).
//
// -mode chaos: the hostile-environment matrix — the curated WAN/partition/
// gray-failure scenario table (internal/dst.HostileScenarios) swept over
// seeds for 2PC, 3PC and Paxos Commit, reporting blocking probability, commit
// availability during and after faults, and cross-region tail latency in
// virtual time (see chaos.go).
//
// Either way the run is written as JSON so the bench trajectory can track it.
//
//	loadgen -clients 64 -duration 5s -out BENCH_commit_throughput.json
//	loadgen -mode scaleout -sites 2,4,8 -cross-shard 0,0.25,1 -out BENCH_shard_scaleout.json
//	loadgen -mode transport -bodies 1,8,64 -out BENCH_transport.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/metrics"
	"nbcommit/internal/wal"
)

type scenarioResult struct {
	Protocol      string  `json:"protocol"`
	WAL           string  `json:"wal"` // "group" or "fsync-per-record"
	Clients       int     `json:"clients"`
	DurationS     float64 `json:"duration_s"`
	Commits       int64   `json:"commits"`
	Aborts        int64   `json:"aborts"`
	Errors        int64   `json:"errors"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	WALBatches    int64   `json:"wal_batches"`
	WALMeanBatch  float64 `json:"wal_mean_batch"`
	WALMaxBatch   int64   `json:"wal_max_batch"`
	// WALLazyRatio is the fraction of flushed WAL records that were lazy
	// riders (begin/end/settlement records under the forced-record diet):
	// they rode a forced batch instead of requiring a sync of their own.
	WALLazyRatio float64 `json:"wal_lazy_ratio"`
	SyncP99Ms    float64 `json:"sync_p99_ms"`
	// ForcedPerCommit is the mean count of WAL records forced per
	// transaction at one site, by role and outcome, from the
	// engine_wal_forced_records_per_commit histograms. The presumed-abort
	// headline numbers: 2PC coordinator_commit 1, participant_commit 2,
	// coordinator_abort 0.
	ForcedPerCommit map[string]float64 `json:"forced_records_per_commit"`
	// Steady-state checks: transactions still tracked across all sites
	// after the auto-forget grace period, and heap growth over the
	// measured window (both must stay flat run over run).
	TrackedTxns   int     `json:"tracked_txns_after_settle"`
	HeapStartMB   float64 `json:"heap_start_mb"`
	HeapEndMB     float64 `json:"heap_end_mb"`
	ForgetAfterMs float64 `json:"forget_after_ms"`
	// Phases is the commit-path breakdown sourced from the engine's metrics
	// registry: votes (begin→full vote round), acks (3PC prepare round),
	// log_force (WAL record staged→durable), settle (decision→DEC-ACKs).
	Phases map[string]phaseStats `json:"phase_latency"`
}

type phaseStats struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

type report struct {
	Clients    int              `json:"clients"`
	DurationS  float64          `json:"duration_s"`
	Scenarios  []scenarioResult `json:"scenarios"`
	Speedup2PC   float64        `json:"speedup_2pc"` // group vs fsync-per-record
	Speedup3PC   float64        `json:"speedup_3pc"`
	SpeedupPaxos float64        `json:"speedup_paxos"`
	// ReadMix holds the read/write-mix cells (-read-ratio > 0): for each
	// protocol, the identical workload with protocol-enlisted reads and with
	// snapshot fast-path reads. ReadFastPath summarizes the comparison per
	// protocol.
	ReadMix      []readMixResult           `json:"read_mix,omitempty"`
	ReadFastPath map[string]readMixSummary `json:"read_fastpath,omitempty"`
}

func main() {
	var (
		mode       = flag.String("mode", "throughput", "throughput (3-node WAL bench), scaleout (keyed sharding bench), transport (TCP wire microbench) or chaos (hostile-environment 2PC-vs-3PC matrix)")
		clients    = flag.Int("clients", 64, "concurrent closed-loop client sessions (scaleout: per site)")
		duration   = flag.Duration("duration", 5*time.Second, "measured window per scenario")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "unmeasured warm-up per scenario")
		out        = flag.String("out", "", "JSON report path (default per mode)")
		dir        = flag.String("dir", "", "WAL directory (default: a temp dir; use a real disk to measure real fsyncs)")
		forget     = flag.Duration("forget-after", 250*time.Millisecond, "engine auto-forget grace period")
		shards     = flag.Int("shards", 0, "engine event-loop shards per site (0 = GOMAXPROCS)")
		bodiesFlag = flag.String("bodies", "1,8,64", "transport: comma-separated message body sizes in bytes")
		senders    = flag.Int("senders", 8, "transport: concurrent sender goroutines")
		sitesFlag  = flag.String("sites", "2,4,8", "scaleout: comma-separated cluster sizes")
		crossFlag  = flag.String("cross-shard", "0,0.25,1", "scaleout: comma-separated fractions of cross-shard transactions, each in [0,1]")
		protoFlag  = flag.String("proto", "3pc", "scaleout: commit protocol (2pc, 3pc, or paxos)")
		chaosSeeds = flag.Int("chaos-seeds", 25, "chaos: seeds per (scenario, protocol) cell")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile covering every scenario run")
		readRatio  = flag.Float64("read-ratio", 0, "throughput: fraction of operations that are reads (0 skips the read-mix matrix); each protocol runs the mix once with protocol-enlisted reads and once with snapshot fast-path reads")
		zipfS      = flag.Float64("zipf", 1.1, "throughput read-mix: zipf skew parameter for read keys (<=1 means uniform)")
		arrival    = flag.Float64("arrival-rate", 0, "throughput read-mix: total open-loop arrivals/s across all clients (0 = closed loop)")
		keyCount   = flag.Int("keys", 1000, "throughput read-mix: prepopulated keyspace size")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	base := *dir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "loadgen-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(base)
	}

	switch *mode {
	case "chaos":
		if *out == "" {
			*out = "BENCH_chaos.json"
		}
		if err := runChaos(*chaosSeeds, *out); err != nil {
			log.Fatal(err)
		}
		return
	case "transport":
		bodies, err := parseInts(*bodiesFlag)
		if err != nil {
			log.Fatal(err)
		}
		if *out == "" {
			*out = "BENCH_transport.json"
		}
		if err := runTransport(bodies, *senders, *duration, *warmup, *out); err != nil {
			log.Fatal(err)
		}
		return
	case "scaleout":
		proto, err := engine.ParseProtocol(*protoFlag)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		sites, err := parseInts(*sitesFlag)
		if err != nil {
			log.Fatal(err)
		}
		ratios, err := parseFloats(*crossFlag)
		if err != nil {
			log.Fatal(err)
		}
		if *out == "" {
			*out = "BENCH_shard_scaleout.json"
		}
		if err := runScaleout(proto, sites, ratios, *clients, *duration, *warmup, *forget, *shards, base, *out); err != nil {
			log.Fatal(err)
		}
		return
	case "throughput":
	default:
		log.Fatalf("loadgen: unknown mode %q", *mode)
	}
	if *out == "" {
		*out = "BENCH_commit_throughput.json"
	}

	rep := report{Clients: *clients, DurationS: duration.Seconds()}
	for _, proto := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
		for _, group := range []bool{false, true} {
			res, err := runScenario(proto, group, *clients, *duration, *warmup, *forget, *shards, base)
			if err != nil {
				log.Fatalf("loadgen: %s group=%v: %v", proto, group, err)
			}
			rep.Scenarios = append(rep.Scenarios, *res)
			fmt.Printf("%-5s %-17s %8.0f commits/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  mean batch %.1f\n",
				res.Protocol, res.WAL, res.CommitsPerSec, res.P50Ms, res.P95Ms, res.P99Ms, res.WALMeanBatch)
			if line := phaseLine(res.Phases); line != "" {
				fmt.Printf("     phases:%s\n", line)
			}
		}
	}
	rep.Speedup2PC = speedup(rep.Scenarios, "2PC")
	rep.Speedup3PC = speedup(rep.Scenarios, "3PC")
	rep.SpeedupPaxos = speedup(rep.Scenarios, "Paxos")
	fmt.Printf("group-commit speedup: 2PC %.2fx, 3PC %.2fx, Paxos %.2fx\n",
		rep.Speedup2PC, rep.Speedup3PC, rep.SpeedupPaxos)

	if *readRatio > 0 {
		mix, summary, err := runReadMix(readMixConfig{
			clients:     *clients,
			duration:    *duration,
			warmup:      *warmup,
			forget:      *forget,
			shards:      *shards,
			base:        base,
			readRatio:   *readRatio,
			zipfS:       *zipfS,
			arrivalRate: *arrival,
			keys:        *keyCount,
		})
		if err != nil {
			log.Fatalf("loadgen: read-mix: %v", err)
		}
		rep.ReadMix = mix
		rep.ReadFastPath = summary
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func speedup(scenarios []scenarioResult, proto string) float64 {
	var group, base float64
	for _, s := range scenarios {
		if s.Protocol != proto {
			continue
		}
		if s.WAL == "group" {
			group = s.CommitsPerSec
		} else {
			base = s.CommitsPerSec
		}
	}
	if base == 0 {
		return 0
	}
	return group / base
}

func runScenario(proto engine.ProtocolKind, group bool, clients int, duration, warmup, forget time.Duration, shards int, base string) (*scenarioResult, error) {
	walName := "fsync-per-record"
	if group {
		walName = "group"
	}
	dir, err := os.MkdirTemp(base, fmt.Sprintf("%s-%s-", proto, walName))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var batches, batchRecs, maxBatch, lazyRecs atomic.Int64
	var syncHist metrics.Histogram
	reg := metrics.NewRegistry()
	cluster, err := dtx.NewCluster(3, dtx.Options{
		Protocol:      proto,
		Timeout:       500 * time.Millisecond,
		LockTimeout:   time.Second,
		Dir:           dir,
		SyncWAL:       true,
		NoGroupCommit: !group,
		ForgetAfter:   forget,
		Shards:        shards,
		Registry:      reg,
		WALMetrics: wal.Metrics{
			BatchRecords: func(n int) {
				batches.Add(1)
				batchRecs.Add(int64(n))
				for {
					old := maxBatch.Load()
					if int64(n) <= old || maxBatch.CompareAndSwap(old, int64(n)) {
						break
					}
				}
			},
			BatchLazyRecords: func(n int) { lazyRecs.Add(int64(n)) },
			SyncLatency:      func(d time.Duration) { syncHist.Observe(d) },
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	var (
		lat       metrics.Histogram
		commits   atomic.Int64
		aborts    atomic.Int64
		errsN     atomic.Int64
		measuring atomic.Bool
		stop      atomic.Bool
		heapStart atomic.Int64
	)
	var wg sync.WaitGroup
	firstErr := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			coord := 1 + c%3
			for i := 0; !stop.Load(); i++ {
				t, err := cluster.Begin(coord)
				if err != nil {
					firstErr <- err
					return
				}
				ok := true
				for site := 1; site <= 3; site++ {
					if err := t.Put(site, fmt.Sprintf("c%d-s%d", c, site), fmt.Sprintf("v%d", i)); err != nil {
						ok = false
						break
					}
				}
				if !ok {
					_ = t.Abort()
					errsN.Add(1)
					continue
				}
				start := time.Now()
				o, err := t.Commit(10 * time.Second)
				elapsed := time.Since(start)
				if !measuring.Load() {
					continue
				}
				switch {
				case err != nil || o == engine.OutcomePending:
					errsN.Add(1)
				case o == engine.OutcomeCommitted:
					commits.Add(1)
					lat.Observe(elapsed)
				default:
					aborts.Add(1)
				}
			}
		}(c)
	}

	time.Sleep(warmup)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapStart.Store(int64(ms.HeapAlloc))
	measuring.Store(true)
	measureStart := time.Now()
	time.Sleep(duration)
	measuring.Store(false)
	elapsed := time.Since(measureStart)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-firstErr:
		return nil, err
	default:
	}

	// Let auto-forget settle, then check what the sites still remember.
	time.Sleep(3 * forget)
	tracked := 0
	for _, id := range cluster.IDs() {
		tracked += len(cluster.Node(id).Site.Transactions())
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)

	res := &scenarioResult{
		Protocol:      proto.String(),
		WAL:           walName,
		Clients:       clients,
		DurationS:     elapsed.Seconds(),
		Commits:       commits.Load(),
		Aborts:        aborts.Load(),
		Errors:        errsN.Load(),
		CommitsPerSec: float64(commits.Load()) / elapsed.Seconds(),
		MeanMs:        ms2(lat.Mean()),
		P50Ms:         ms2(lat.Quantile(0.50)),
		P95Ms:         ms2(lat.Quantile(0.95)),
		P99Ms:         ms2(lat.Quantile(0.99)),
		MaxMs:         ms2(lat.Max()),
		WALBatches:    batches.Load(),
		WALMaxBatch:   maxBatch.Load(),
		SyncP99Ms:     ms2(syncHist.Quantile(0.99)),
		TrackedTxns:   tracked,
		HeapStartMB:   float64(heapStart.Load()) / (1 << 20),
		HeapEndMB:     float64(ms.HeapAlloc) / (1 << 20),
		ForgetAfterMs: float64(forget) / float64(time.Millisecond),
	}
	if b := batches.Load(); b > 0 {
		res.WALMeanBatch = float64(batchRecs.Load()) / float64(b)
	}
	if r := batchRecs.Load(); r > 0 {
		res.WALLazyRatio = float64(lazyRecs.Load()) / float64(r)
	}

	// Per-phase commit-path breakdown and forced-record accounting, straight
	// from the engine's registry (the same histograms a kvnode exports on
	// /metrics). The forced histograms observe plain counts as Durations, so
	// the mean converts 1:1 back to records.
	em := engine.NewMetrics(reg, proto)
	res.ForcedPerCommit = map[string]float64{}
	for _, rc := range []struct {
		name             string
		coord, committed bool
	}{
		{"coordinator_commit", true, true},
		{"participant_commit", false, true},
		{"coordinator_abort", true, false},
		{"participant_abort", false, false},
	} {
		if h := em.ForcedPerCommit(rc.coord, rc.committed); h.Count() > 0 {
			res.ForcedPerCommit[rc.name] = float64(h.Mean())
		}
	}
	res.Phases = map[string]phaseStats{}
	for phase, h := range em.Phases() {
		if h.Count() == 0 {
			continue
		}
		res.Phases[phase] = phaseStats{
			Count:  int64(h.Count()),
			MeanMs: ms2(h.Mean()),
			P50Ms:  ms2(h.Quantile(0.50)),
			P99Ms:  ms2(h.Quantile(0.99)),
		}
	}
	return res, nil
}

// phaseLine formats the phase breakdown for the console report, in
// commit-path order.
func phaseLine(phases map[string]phaseStats) string {
	var b strings.Builder
	for _, name := range []string{"votes", "acks", "log_force", "settle"} {
		p, ok := phases[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %s p50 %.2fms p99 %.2fms", name, p.P50Ms, p.P99Ms)
	}
	return b.String()
}

func ms2(d time.Duration) float64 {
	return float64(d.Round(10*time.Microsecond)) / float64(time.Millisecond)
}
