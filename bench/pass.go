package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// passConfig is what one pass over one workload needs.
type passConfig struct {
	root     string // the checkout: where go build runs
	buildDir string // binaries, WALs and logs go here
	outDir   string // trace files go here
	wl       workload
	seed     int64
	conns    int
	warmup   time.Duration
	window   time.Duration
	nSlices  int
	// setupReps is how many times the cluster is set up; the load runs on the
	// last one and setup_s is the median.
	setupReps int
}

func (c passConfig) sliceLen() time.Duration { return c.window / time.Duration(c.nSlices) }

// procResult is what the pass over real processes yields.
type procResult struct {
	values      map[string]float64 // end-to-end and process-side per-layer metrics
	counts      map[string]int     // samples behind them
	attempted   int
	failed      int
	failures    []string
	check       checkReport
	commandLine []string
	walDir      string
}

// waitUntil sleeps until t, waking to check the child-process guard.
func waitUntil(t time.Time, cl *procCluster) error {
	for {
		if err := cl.dead(); err != nil {
			return err
		}
		left := time.Until(t)
		if left <= 0 {
			return nil
		}
		time.Sleep(min(left, 100*time.Millisecond))
	}
}

// setUp builds kvnode, spawns a cluster, waits until it serves and preloads
// it; it returns the cluster and how long all of that took.
func setUp(c passConfig, ks *keyspace) (*procCluster, float64, error) {
	t0 := time.Now()
	bin := filepath.Join(c.buildDir, "kvnode")
	if err := buildKvnode(c.root, bin); err != nil {
		return nil, 0, err
	}
	dir := filepath.Join(c.buildDir, fmt.Sprintf("cluster-%d", os.Getpid()))
	cl, err := startCluster(bin, dir, c.wl.proto)
	if err != nil {
		return nil, 0, err
	}
	if err := preload(cl.clientAddrs(), ks, c.seed); err != nil {
		err = guardOr(cl, err)
		cl.stop()
		return nil, 0, err
	}
	return cl, time.Since(t0).Seconds(), nil
}

// processPass measures one workload on a fresh cluster of kvnode processes.
func processPass(c passConfig) (*procResult, error) {
	ks := newKeyspace(c.seed, keysPerSite)
	var (
		cl     *procCluster
		setups []float64
	)
	for i := 0; i < c.setupReps; i++ {
		if cl != nil {
			cl.stop()
		}
		var took float64
		var err error
		if cl, took, err = setUp(c, ks); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer cl.stop()
	res := &procResult{values: map[string]float64{}, counts: map[string]int{}, commandLine: cl.commandLines(), walDir: cl.dir}
	res.values["setup_s"], res.counts["setup_s"] = median(setups), len(setups)
	probe, err := fsyncProbe(cl.dir)
	if err != nil {
		return nil, err
	}
	res.values["wal.fsync_probe_ms"] = probe

	// The load runs from now until the last scrape is in; samples are kept
	// only if they end inside the window, which opens after the warm-up.
	drv := &driver{wl: c.wl, ks: ks, seed: c.seed, addrs: cl.clientAddrs(), conns: c.conns}
	winStart := time.Now().Add(c.warmup)
	stop, done := make(chan struct{}), make(chan struct{})
	var (
		results []*connResult
		runErr  error
	)
	go func() {
		results, runErr = drv.run(winStart, stop)
		close(done)
	}()
	stopLoad := func() { close(stop); <-done }

	var win window
	cpu := make([][]float64, c.nSlices+1) // CPU seconds per node at each slice boundary
	for i := 0; i <= c.nSlices; i++ {
		if err := waitUntil(winStart.Add(time.Duration(i)*c.sliceLen()), cl); err != nil {
			stopLoad()
			return nil, err
		}
		if i == 0 {
			win.before, err = cl.scrapeAll()
		}
		if err == nil {
			cpu[i], err = cl.cpuSeconds()
		}
		if err == nil && i == c.nSlices {
			win.after, err = cl.scrapeAll()
		}
		if err != nil {
			stopLoad()
			return nil, guardOr(cl, err)
		}
	}
	rss, rssErr := cl.peakRSSMiB()
	stopLoad()
	if err := cl.dead(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if rssErr != nil {
		return nil, rssErr
	}
	res.values["kvnode.peak_rss_mb"] = rss

	for _, r := range results {
		res.attempted += r.attempted
		res.failed += r.failed
		res.failures = append(res.failures, r.failures...)
	}
	c.clientMetrics(results, cpu, res)
	scrapedMetrics(win, c.wl, c.window, res)

	// Correctness, outside every timing. COMMITTED is sent when the
	// coordinator has decided; participants apply the decision a message
	// later, so let them drain before reading through them.
	time.Sleep(200 * time.Millisecond)
	exp := newExpectation(results)
	t0 := time.Now()
	if err := readBack(cl.clientAddrs(), exp, results, ks, &res.check); err != nil {
		return nil, guardOr(cl, err)
	}
	res.check.ReadBackSeconds = time.Since(t0).Seconds()
	if c.wl.full {
		t0 = time.Now()
		cl.kill()
		if err := cl.spawn(); err != nil {
			return nil, err
		}
		if err := readAfterRestart(cl.clientAddrs(), exp, results, ks, c.seed, &res.check); err != nil {
			return nil, guardOr(cl, err)
		}
		res.check.RestartSeconds = time.Since(t0).Seconds()
	}
	return res, nil
}

// guardOr prefers the child-process guard's report to the I/O error a dead
// node caused.
func guardOr(cl *procCluster, err error) error {
	if guard := cl.dead(); guard != nil {
		return guard
	}
	return err
}

// merged concatenates one kind of sample over all connections.
func merged(results []*connResult, pick func(*connResult) []sample) []sample {
	var out []sample
	for _, r := range results {
		out = append(out, pick(r)...)
	}
	return out
}

func p50(xs []float64) float64 { return percentile(xs, 0.50) }
func p95(xs []float64) float64 { return percentile(xs, 0.95) }
func p99(xs []float64) float64 { return percentile(xs, 0.99) }

// clientMetrics computes what the driver saw at its sockets. Rates and
// latencies are computed per slice and the median slice is reported; tail
// percentiles of single verbs use the whole window, for the samples.
func (c passConfig) clientMetrics(results []*connResult, cpu [][]float64, res *procResult) {
	v, n := res.values, res.counts
	sliceSec := c.sliceLen().Seconds()
	perSec := func(xs []float64) float64 { return float64(len(xs)) / sliceSec }
	cut := func(s []sample) [][]float64 { return cutSlices(s, c.nSlices, c.sliceLen()) }

	txns := cut(merged(results, func(r *connResult) []sample { return r.txns }))
	reads := cut(merged(results, func(r *connResult) []sample { return r.reads }))
	ops := make([][]float64, c.nSlices)
	for i := range ops {
		ops[i] = append(append(ops[i], txns[i]...), reads[i]...)
	}
	v["commits_per_s"], n["commits_per_s"] = medianSlice(txns, perSec), count(txns)
	v["commit_p50_ms"], n["commit_p50_ms"] = medianSlice(txns, p50), count(txns)
	v["nodeapi.commit_p95_ms"], n["nodeapi.commit_p95_ms"] = medianSlice(txns, p95), count(txns)
	v["reads_per_s"], n["reads_per_s"] = medianSlice(reads, perSec), count(reads)
	v["read_p50_ms"], n["read_p50_ms"] = medianSlice(reads, p50), count(reads)
	v["nodeapi.read_p95_ms"], n["nodeapi.read_p95_ms"] = medianSlice(reads, p95), count(reads)
	v["ops_per_s"], n["ops_per_s"] = medianSlice(ops, perSec), count(ops)
	v["op_p50_ms"], n["op_p50_ms"] = medianSlice(ops, p50), count(ops)
	v["failed_share"] = ratio(float64(res.failed), float64(res.attempted))

	// CPU of the three processes per completed operation, slice by slice.
	perOp := make([]float64, c.nSlices)
	var total, busiest float64
	for node := range cpu[0] {
		used := cpu[c.nSlices][node] - cpu[0][node]
		total += used
		busiest = max(busiest, used)
	}
	for i := range perOp {
		var used float64
		for node := range cpu[i] {
			used += cpu[i+1][node] - cpu[i][node]
		}
		perOp[i] = ratio(used*1e6, float64(len(ops[i])))
	}
	v["cpu_us_per_op"], n["cpu_us_per_op"] = median(perOp), count(ops)
	v["kvnode.cpu_share_busiest_node"] = ratio(busiest, total)

	for _, m := range []struct {
		verb, name string
		pct        func([]float64) float64
	}{
		{"begin", "nodeapi.begin_p50_ms", p50},
		{"putk", "nodeapi.putk_p50_ms", p50},
		{"commit", "nodeapi.commit_verb_p50_ms", p50},
		{"commit", "nodeapi.commit_verb_p99_ms", p99},
		{"sgetk", "nodeapi.sgetk_p50_ms", p50},
		{"sgetk", "nodeapi.sgetk_p99_ms", p99},
	} {
		xs := flatten(cut(merged(results, func(r *connResult) []sample { return r.verbs[m.verb] })))
		v[m.name], n[m.name] = m.pct(xs), len(xs)
	}
}

// heartbeatsPerSecond is the detector traffic the transport counters include:
// every node sends each peer one heartbeat per -hb interval (150 ms, kvnode's
// default). It is subtracted so that transport.msgs_per_commit counts the
// messages commits and reads cause.
const heartbeatsPerSecond = numSites * (numSites - 1) / 0.150

// scrapedMetrics computes the per-layer metrics that come from the nodes' own
// /metrics pages, as growth across the window over all three nodes.
func scrapedMetrics(win window, wl workload, length time.Duration, res *procResult) {
	v, n := res.values, res.counts
	commits := float64(n["commits_per_s"]) // client-observed commits in the window
	proto := map[string]string{"2pc": "2PC", "3pc": "3PC"}[wl.proto]
	const ms = 1e3 // summaries named _seconds are exported in seconds

	for _, phase := range []string{"votes", "acks", "log_force", "settle"} {
		name := "engine." + phase + "_p50_ms"
		labels := []string{"protocol", proto, "phase", phase}
		v[name] = win.quantile("0.5", "engine_phase_latency_seconds", labels...) * ms
		n[name] = int(win.delta("engine_phase_latency_seconds_count", labels...))
	}
	forced := func(role string) float64 {
		return win.mean("engine_wal_forced_records_per_commit", "protocol", proto, "role", role, "outcome", "committed")
	}
	v["engine.coord_forced_per_commit"] = forced("coordinator")
	v["engine.part_forced_per_commit"] = forced("participant")

	batches := win.delta("wal_batch_records_count")
	v["wal.sync_p50_ms"] = win.quantile("0.5", "wal_sync_latency_seconds") * ms
	v["wal.sync_p99_ms"] = win.quantile("0.99", "wal_sync_latency_seconds") * ms
	n["wal.sync_p50_ms"], n["wal.sync_p99_ms"] = int(batches), int(batches)
	v["wal.records_per_batch"] = win.mean("wal_batch_records")
	v["wal.batches_per_commit"] = ratio(batches, commits)
	v["wal.bytes_per_commit"] = ratio(win.delta("wal_log_bytes_total"), commits)

	msgs := win.delta("transport_batch_msgs_sum") - heartbeatsPerSecond*length.Seconds()
	v["transport.msgs_per_commit"] = ratio(max(msgs, 0), commits)
	v["transport.msgs_per_write"] = win.mean("transport_batch_msgs")
	for _, cause := range []string{"backoff", "dial", "write", "inbox_overflow", "queue_full"} {
		v["transport.dropped"] += win.delta("transport_dropped_total", "cause", cause)
	}
	v["kv.mvcc_versions"] = win.gauge("kv_mvcc_versions")
}

// fsyncProbe times a 4 KiB write plus fsync in dir, the directory the WALs
// live in, and returns the median of a few in milliseconds: the floor under
// every forced log record on this machine.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var took []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		took = append(took, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(took), nil
}

// inprocResult is what one in-process pass yields.
type inprocResult struct {
	values    map[string]float64 // traced per-layer metrics (empty for an untraced pass)
	counts    map[string]int
	commitP50 float64 // ms, at the client socket
	spans     []span
}

// inprocPass replays the workload against the in-process assembly. Traced, it
// yields the per-layer budget; untraced, only the commit latency the traced
// one is compared with.
func inprocPass(c passConfig, traced bool) (*inprocResult, error) {
	dir := filepath.Join(c.buildDir, fmt.Sprintf("inproc-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	cl, err := startInproc(dir, c.wl.proto, tr)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	ks := newKeyspace(c.seed, keysPerSite)
	if err := preload(cl.clientAddrs(), ks, c.seed); err != nil {
		return nil, err
	}
	drv := &driver{wl: c.wl, ks: ks, seed: c.seed, addrs: cl.clientAddrs(), conns: c.conns, tracer: tr}
	winStart := time.Now().Add(c.warmup)
	var from int64
	if traced {
		from = tr.rec.now() + int64(c.warmup)
	}
	stop := make(chan struct{})
	time.AfterFunc(c.warmup+c.window, func() { close(stop) })
	results, err := drv.run(winStart, stop)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.failed > 0 {
			return nil, fmt.Errorf("in-process pass: %d of %d operations failed: %v", r.failed, r.attempted, r.failures)
		}
	}
	res := &inprocResult{values: map[string]float64{}, counts: map[string]int{}}
	txns := merged(results, func(r *connResult) []sample { return r.txns })
	res.commitP50 = p50(cutSlices(txns, 1, c.window)[0])
	if !traced {
		return res, nil
	}
	if n := tr.overlaps.Load(); n > 0 {
		return nil, fmt.Errorf("in-process pass: %d data-plane calls overlapped at one node; the spans cannot be paired", n)
	}
	res.spans = tr.rec.spans()
	tr.mu.Lock()
	sendCall := tr.sendCall
	tr.mu.Unlock()
	tracedMetrics(res, from, from+int64(c.window), sendCall)
	res.values["kv.snapshot_get_p50_us"] = snapshotGetProbe(cl, ks, c.seed)
	return res, nil
}

// tracedMetrics turns the spans whose operation ran inside [from,to) into the
// per-layer budget.
func tracedMetrics(res *inprocResult, from, to int64, sendCall []float64) {
	v, n := res.values, res.counts
	// Keep what ran inside the window; the operations among it are the roots.
	var in []span
	var rootNs float64
	nOps := 0
	for _, s := range res.spans {
		if s.Start < from || s.End >= to {
			continue
		}
		in = append(in, s)
		if s.Parent == 0 && s.Layer == layerClient {
			rootNs += float64(s.End - s.Start)
			nOps++
		}
	}
	self := selfTimes(in)
	ops := float64(nOps)
	for _, layer := range []string{layerNodeapi, layerRemote, layerKV, layerEngine, layerWAL, layerTransport} {
		v[layer+".self_us_per_op"], n[layer+".self_us_per_op"] = ratio(self[layer]/1e3, ops), nOps
	}
	v["trace.residual_share"], n["trace.residual_share"] = ratio(self[layerClient], rootNs), nOps

	for name, spanName := range map[string]string{
		"remote.client_rtt_p50_us":    "remote.rtt",
		"remote.server_handle_p50_us": "remote.handle",
		"kv.prepare_p50_us":           "kv.prepare",
		"kv.commit_p50_us":            "kv.commit",
		"wal.append_wait_p50_us":      "wal.append_wait",
		"transport.wire_p50_us":       "transport.wire",
	} {
		d := durations(in, spanName)
		v[name], n[name] = p50(d), len(d)
	}
	v["remote.rpcs_per_op"] = ratio(float64(n["remote.client_rtt_p50_us"]), ops)
	v["transport.send_call_p50_us"], n["transport.send_call_p50_us"] = p50(sendCall), len(sendCall)
}

// snapshotGetProbe times kv.Store.SnapshotGet on the stores the pass just
// loaded. nodeapi and remote call the store through its concrete type, so a
// read's kv share cannot be wrapped; this is its size. Calls are timed a
// hundred at a time, because one takes about as long as reading the clock.
func snapshotGetProbe(cl *inprocCluster, ks *keyspace, seed int64) float64 {
	const batch, batches = 100, 30
	rng := rand.New(rand.NewSource(seed))
	var perCall []float64
	for _, node := range cl.nodes {
		keys := ks.bySite[node.id]
		for b := 0; b < batches; b++ {
			start := rng.Intn(len(keys) - batch)
			t0 := time.Now()
			for _, k := range keys[start : start+batch] {
				_, _, _ = node.store.SnapshotGet(k) // the value is checked by the passes, not here
			}
			perCall = append(perCall, float64(time.Since(t0))/batch/1e3)
		}
	}
	return p50(perCall)
}
