package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/failure"
	"nbcommit/internal/kv"
	"nbcommit/internal/metrics"
	"nbcommit/internal/nodeapi"
	"nbcommit/internal/remote"
	"nbcommit/internal/shard"
	"nbcommit/internal/trace"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// kvnode's flag defaults, which the in-process assembly repeats.
const (
	protoTimeout = 500 * time.Millisecond // -timeout
	hbEvery      = 150 * time.Millisecond // -hb
	hbTimeout    = 600 * time.Millisecond // -hb-timeout
	forgetAfter  = 30 * time.Second       // -forget-after
	gcEvery      = 5 * time.Second        // -gc-every
	traceEvents  = 4096                   // -trace-events
	lockTimeout  = 250 * time.Millisecond // kv.Options.LockTimeout in cmd/kvnode
)

// inprocNode is one site assembled in this process from the layers' public
// constructors, wired as cmd/kvnode/main.go wires them: TCP transport, file
// WAL with fsync, heartbeat detector, store, data plane, engine, and the
// client API on a real listener. With a tracer, the engine's three downward
// boundaries (Endpoint, Log, Resource) and the data plane's send functions
// and message hooks go through span-recording wrappers; without one, the raw
// values are used, which is the baseline trace.overhead_share compares with.
type inprocNode struct {
	id    int
	ep    *transport.TCPEndpoint
	log   *wal.FileLog
	store *kv.Store
	hb    *failure.HeartbeatDetector
	site  *engine.Site
	ln    net.Listener
	quit  chan struct{} // stops the GC ticker
}

type inprocCluster struct {
	nodes []*inprocNode
}

func startInproc(dir, proto string, tr *tracer) (*inprocCluster, error) {
	kind, err := engine.ParseProtocol(proto)
	if err != nil {
		return nil, err
	}
	ports, err := freePorts(numSites)
	if err != nil {
		return nil, err
	}
	addrs := map[int]string{}
	for i, id := range siteIDs() {
		addrs[id] = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	c := &inprocCluster{}
	for _, id := range siteIDs() {
		n, err := startInprocNode(id, addrs, dir, kind, tr)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("in-process node %d: %w", id, err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

func startInprocNode(id int, addrs map[int]string, dir string, kind engine.ProtocolKind, tr *tracer) (*inprocNode, error) {
	n := &inprocNode{id: id, quit: make(chan struct{})}
	peers := map[int]string{}
	for p, a := range addrs {
		if p != id {
			peers[p] = a
		}
	}
	reg := metrics.NewRegistry()
	batchHist := reg.Histogram("transport_batch_msgs")
	var err error
	n.ep, err = transport.ListenTCPOpts(id, addrs[id], peers, transport.TCPOptions{
		Codec:     transport.CodecBinary,
		BatchSize: func(k int) { batchHist.Observe(time.Duration(k)) },
	})
	if err != nil {
		return nil, err
	}
	var (
		walBatchHist = reg.Histogram("wal_batch_records")
		walSyncHist  = reg.Histogram("wal_sync_latency_seconds")
		walBytes     = reg.Counter("wal_log_bytes_total")
	)
	var engineMetrics *engine.Metrics
	for _, k := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
		if m := engine.NewMetrics(reg, k); k == kind {
			engineMetrics = m
		}
	}
	ids := siteIDs()
	smap := shard.Default(ids, shardsPerSite)
	n.hb = failure.NewHeartbeat(id, ids, hbEvery, hbTimeout, func(to int) {
		_ = n.ep.Send(transport.Message{To: to, Kind: failure.HeartbeatKind})
	})
	n.hb.Start()
	n.log, err = wal.OpenFileLog(filepath.Join(dir, fmt.Sprintf("n%d.wal", id)), wal.FileLogOptions{
		Metrics: wal.Metrics{
			BatchRecords: func(k int) { walBatchHist.Observe(time.Duration(k)) },
			SyncLatency:  func(d time.Duration) { walSyncHist.Observe(d) },
			BatchBytes:   func(k int) { walBytes.Add(int64(k)) },
		},
	})
	if err != nil {
		n.stop()
		return nil, err
	}
	n.store = kv.NewStore(kv.Options{LockTimeout: lockTimeout})
	go func() {
		t := time.NewTicker(gcEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.store.GC()
			case <-n.quit:
				return
			}
		}
	}()

	// The seams: raw values, or their traced wrappers.
	var (
		endpoint   transport.Endpoint = n.ep
		logSeam    wal.Log            = n.log
		resource   engine.Resource    = dtx.StoreResource{Store: n.store}
		serverSend                    = n.ep.Send
		clientSend                    = n.ep.Send
	)
	if tr != nil {
		tep := &tracedEndpoint{inner: n.ep, tr: tr, inbox: make(chan transport.Message, tracedInboxSize), quit: n.quit}
		go tep.forward()
		endpoint = tep
		logSeam = &tracedLog{inner: n.log, tr: tr, node: id}
		resource = &tracedResource{inner: dtx.StoreResource{Store: n.store}, tr: tr, node: id}
		serverSend = tr.serverSend(tep)
		clientSend = tr.clientSend(id, tep)
	}
	server := &remote.Server{
		Store: n.store, Send: serverSend, Map: smap,
		Paradigm: "central", CommitWait: 20 * protoTimeout,
	}
	client := remote.NewClient(clientSend, protoTimeout)
	client.MapVersion = smap.Version
	handleOp, deliverReply := server.Handle, client.Deliver
	if tr != nil {
		handleOp, deliverReply = tr.handleOp(id, server), tr.deliverReply(id, client)
	}

	n.site, err = engine.Recover(engine.Config{
		ID:            id,
		Endpoint:      endpoint,
		Log:           logSeam,
		Resource:      resource,
		Detector:      n.hb,
		Protocol:      kind,
		Timeout:       protoTimeout,
		ForgetAfter:   forgetAfter,
		Trace:         trace.NewBounded(traceEvents),
		Metrics:       engineMetrics,
		ReadOnlyVotes: true,
		Unhandled: func(m transport.Message) {
			switch m.Kind {
			case failure.HeartbeatKind:
				n.hb.Observe(m.From)
			case remote.KindOp:
				go handleOp(m) // store ops may wait on locks
			case remote.KindReply:
				deliverReply(m)
			}
		},
	})
	if err != nil {
		n.stop()
		return nil, err
	}
	server.SetSite(n.site)

	api := &nodeapi.API{
		Self: id, Site: n.site, Store: n.store,
		Client: client, Timeout: protoTimeout, Paradigm: "central",
		Router: &shard.Router{Map: smap},
	}
	n.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.stop()
		return nil, err
	}
	go func() {
		for {
			conn, err := n.ln.Accept()
			if err != nil {
				return // listener closed by stop
			}
			go api.Serve(conn)
		}
	}()
	return n, nil
}

func (n *inprocNode) stop() {
	close(n.quit)
	if n.ln != nil {
		n.ln.Close()
	}
	if n.site != nil {
		n.site.Stop()
	}
	if n.hb != nil {
		n.hb.Stop()
	}
	if n.ep != nil {
		n.ep.Close()
	}
	if n.log != nil {
		n.log.Close()
	}
}

func (c *inprocCluster) stop() {
	for _, n := range c.nodes {
		n.stop()
	}
}

func (c *inprocCluster) clientAddrs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.ln.Addr().String()
	}
	return out
}
