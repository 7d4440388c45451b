// Package nodeapi implements the line-oriented client protocol served by
// kvnode: a connected client opens one transaction at a time, issues reads
// and writes — site-addressed or key-addressed — and commits through the
// cluster's commit engines. Key-addressed verbs consult the node's shard
// map, so any node can serve any client without the client knowing data
// placement; the serving node executes remote operations through the data
// plane and the transaction commits across exactly the sites whose shards
// it touched (a single-shard transaction engages one site).
//
// Read-only transactions (BEGIN RO) ride the snapshot fast path: every read
// is served from a pinned multi-version snapshot at the key's owner site —
// no locks, no Begin/Prepare, and COMMIT succeeds without a single commit
// protocol message. SGETK is the one-shot form: a single-shard snapshot read
// is exactly one data-plane RPC (shard-map-version-stamped like every other
// data-plane request).
//
// Protocol (one line per request/response):
//
//	BEGIN [RO]            -> OK <txid>   (RO: read-only snapshot transaction)
//	GET <site> <key>      -> VAL <value> | ERR <msg>
//	PUT <site> <key> <v>  -> OK | ERR <msg>
//	DEL <site> <key>      -> OK | ERR <msg>
//	GETK <key>            -> VAL <value> | ERR <msg>
//	PUTK <key> <v>        -> OK | ERR <msg>
//	DELK <key>            -> OK | ERR <msg>
//	SGETK <key>           -> VAL <value> | ERR <msg>   (snapshot read, no transaction needed)
//	COMMIT                -> COMMITTED | ABORTED | ERR <msg>
//	ABORT                 -> OK
package nodeapi

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/remote"
	"nbcommit/internal/shard"
)

var txSeq atomic.Uint64

// API coordinates client transactions on behalf of one node.
type API struct {
	// Self is the serving node's site ID.
	Self int
	// Site is the node's commit engine.
	Site *engine.Site
	// Store is the node's local store.
	Store *kv.Store
	// Client executes data-plane operations at peers.
	Client *remote.Client
	// Timeout is the engine's protocol timeout, the base of the node's
	// clock.Budget; COMMIT waits for the budget's CommitWait.
	Timeout time.Duration
	// Incarnation is the node's start count (wal.Boot). Transaction IDs
	// carry it, so a restarted node never reuses one its log or its peers
	// still hold.
	Incarnation uint64
	// Paradigm selects central-site (default) or decentralized commitment.
	Paradigm string // "central" or "decentralized"
	// Router resolves key-addressed operations to owner sites. Nil disables
	// the GETK/PUTK/DELK verbs.
	Router *shard.Router
	// Rejected, when set, is told each time a session is refused, with the
	// reason as a metric label value ("line_too_long").
	Rejected func(reason string)
}

// Serve handles one client connection until it closes. A request line over
// bufio.MaxScanTokenSize (64 KiB) ends the session, with a reply that says
// so.
func (a *API) Serve(conn net.Conn) {
	defer conn.Close()
	s := &Session{api: a, touched: map[int]bool{}}
	defer s.Cleanup()
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		fmt.Fprintln(w, s.Execute(sc.Text()))
		if err := w.Flush(); err != nil {
			return
		}
	}
	if sc.Err() == bufio.ErrTooLong {
		if a.Rejected != nil {
			a.Rejected("line_too_long")
		}
		fmt.Fprintln(w, "ERR line too long")
		_ = w.Flush() // the session ends either way
	}
}

// Session is one client's transaction state.
type Session struct {
	api      *API
	mu       sync.Mutex
	txid     string
	readOnly bool
	touched  map[int]bool
	// snaps holds a read-only transaction's per-site snapshot timestamps,
	// pinned lazily on first touch. The local store's pin holds its GC
	// floor; remote snapshots are stateless timestamps (a peer GC racing a
	// long remote read surfaces as ErrSnapshotTooOld, never a wrong value).
	snaps map[int]uint64
}

// Cleanup aborts any transaction left open (e.g. the connection dropped).
func (s *Session) Cleanup() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txid != "" {
		s.abortLocked()
	}
}

func (s *Session) abortLocked() {
	if s.readOnly {
		s.releaseSnapsLocked()
	} else {
		for site := range s.touched {
			// Best effort: a peer that cannot be reached is down, and a
			// crashed store holds no transaction.
			_, _ = s.do(site, remote.Request{Op: remote.OpAbort})
		}
	}
	s.txid = ""
	s.readOnly = false
	s.touched = map[int]bool{}
}

// releaseSnapsLocked drops the local snapshot pin. Remote snapshots need no
// release: peers do not track them.
func (s *Session) releaseSnapsLocked() {
	if ts, ok := s.snaps[s.api.Self]; ok {
		s.api.Store.ReleaseSnapshot(ts)
	}
	s.snaps = nil
}

// do runs one data-plane operation of the open transaction at site: through
// the local store, or as one RPC to a peer. A site's first operation enlists
// it (Request.Enlist): the site begins the transaction and runs the operation
// in the same step, so joining costs a peer no round trip of its own. The
// site counts as touched before the operation runs, because a peer whose
// first operation fails, dies under wait-die or times out may still have
// begun the transaction, and only a touched site is sent OpAbort.
func (s *Session) do(site int, req remote.Request) (string, error) {
	req.TxID = s.txid
	req.Enlist = !s.touched[site]
	s.touched[site] = true
	if site == s.api.Self {
		rep, err := remote.Apply(s.api.Store, req)
		return rep.Value, err
	}
	return s.api.Client.Call(site, req)
}

// Execute runs one protocol line and returns the response line.
func (s *Session) Execute(line string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	args := strings.Fields(line)
	if len(args) == 0 {
		return "ERR empty command"
	}
	switch cmd := strings.ToUpper(args[0]); cmd {
	case "BEGIN":
		return s.begin(args[1:])
	case "GET", "PUT", "DEL", "GETK", "PUTK", "DELK":
		return s.operate(cmd, args[1:])
	case "SGETK":
		return s.snapGetKeyed(args[1:])
	case "COMMIT":
		return s.commit()
	case "ABORT":
		if s.txid == "" {
			return "ERR no open transaction"
		}
		s.abortLocked()
		return "OK"
	default:
		return "ERR unknown command " + cmd
	}
}

// begin opens a transaction without enlisting any site: sites join the
// cohort on first touch, so a transaction whose keys all live elsewhere
// never includes the serving node in its commit. BEGIN RO opens a read-only
// transaction on the snapshot fast path instead: reads come from per-site
// pinned snapshots, writes are refused, and COMMIT involves no protocol.
func (s *Session) begin(args []string) string {
	if s.txid != "" {
		return "ERR transaction already open"
	}
	if len(args) > 0 {
		if !strings.EqualFold(args[0], "RO") {
			return "ERR usage: BEGIN [RO]"
		}
		s.readOnly = true
		s.snaps = map[int]uint64{}
		s.txid = fmt.Sprintf("ro-%d-%d-%d", s.api.Self, s.api.Incarnation, txSeq.Add(1))
		return "OK " + s.txid
	}
	s.txid = fmt.Sprintf("tx-%d-%d-%d", s.api.Self, s.api.Incarnation, txSeq.Add(1))
	return "OK " + s.txid
}

// snapRead reads key at site from the session's read-only snapshot, pinning
// the site's stable timestamp on first touch.
func (s *Session) snapRead(site int, key string) (string, error) {
	if site == s.api.Self {
		ts, ok := s.snaps[s.api.Self]
		if !ok {
			ts = s.api.Store.AcquireSnapshot()
			s.snaps[s.api.Self] = ts
		}
		return s.api.Store.ReadAt(ts, key)
	}
	v, rts, err := s.api.Client.SnapGet(site, key, s.snaps[site])
	if _, ok := s.snaps[site]; !ok && rts != 0 {
		s.snaps[site] = rts // pin even when the first read is a not-found
	}
	return v, err
}

// snapGetKeyed serves SGETK: a one-shot snapshot read of a key at its owner
// site — for a single-shard read, exactly one data-plane RPC, with no
// transaction and no commit-protocol traffic. Inside an open BEGIN RO
// transaction it reads from the transaction's pinned snapshot instead.
func (s *Session) snapGetKeyed(args []string) string {
	if s.api.Router == nil {
		return "ERR this node has no shard map"
	}
	if len(args) < 1 {
		return "ERR usage: SGETK <key>"
	}
	key := args[0]
	site := s.api.Router.Site(key)
	var v string
	var err error
	switch {
	case s.readOnly && s.txid != "":
		v, err = s.snapRead(site, key)
	case site == s.api.Self:
		v, _, err = s.api.Store.SnapshotGet(key)
	default:
		v, _, err = s.api.Client.SnapGet(site, key, 0)
	}
	return valueLine(v, err)
}

func valueLine(v string, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	return "VAL " + v
}

// operate serves the read and write verbs. GET, PUT and DEL name the site;
// GETK, PUTK and DELK route the key to its owner site through the shard map.
func (s *Session) operate(cmd string, args []string) string {
	verb, keyed := cmd[:3], len(cmd) == 4
	if keyed && s.api.Router == nil {
		return "ERR this node has no shard map (use site-addressed " + verb + ")"
	}
	if s.txid == "" {
		return "ERR no open transaction (BEGIN first)"
	}
	form, need := " <key>", 1
	if !keyed {
		form, need = " <site> <key>", 2
	}
	if verb == "PUT" {
		form, need = form+" <value>", need+1
	}
	if len(args) < need {
		return "ERR usage: " + cmd + form
	}
	var site int
	if keyed {
		site = s.api.Router.Site(args[0])
	} else {
		var err error
		if site, err = strconv.Atoi(args[0]); err != nil || site < 1 {
			return "ERR bad site"
		}
		args = args[1:]
	}
	req := remote.Request{Key: args[0]}
	switch {
	case s.readOnly && verb == "GET":
		return valueLine(s.snapRead(site, req.Key))
	case s.readOnly:
		return "ERR read-only transaction"
	case verb == "GET":
		req.Op = remote.OpGet
	case verb == "DEL":
		req.Op = remote.OpDelete
	default:
		req.Op, req.Value = remote.OpPut, strings.Join(args[1:], " ")
	}
	v, err := s.do(site, req)
	if err != nil || verb == "GET" {
		return valueLine(v, err)
	}
	return "OK"
}

func (s *Session) commit() string {
	if s.txid == "" {
		return "ERR no open transaction"
	}
	if s.readOnly {
		// The snapshot was consistent by construction: a read-only
		// transaction commits without Begin, Prepare, or any protocol
		// message — release the pins and report success.
		s.releaseSnapsLocked()
		s.txid = ""
		s.readOnly = false
		return "COMMITTED"
	}
	sites := make([]int, 0, len(s.touched))
	for site := range s.touched {
		sites = append(sites, site)
	}
	sort.Ints(sites)
	o, werr := s.runCommit(sites)
	s.txid = ""
	s.touched = map[int]bool{}
	if werr != nil {
		return "ERR " + werr.Error()
	}
	switch o {
	case engine.OutcomeCommitted:
		return "COMMITTED"
	case engine.OutcomeAborted:
		return "ABORTED"
	default:
		return "ERR still pending (possibly blocked)"
	}
}

// runCommit drives the commit protocol over the touched sites. The cohort
// is exactly the touched set: if this node holds touched data it
// coordinates itself; otherwise it forwards coordination to the
// lowest-numbered touched site, keeping bystander nodes out of the commit —
// a transaction confined to one shard commits at one site.
func (s *Session) runCommit(sites []int) (engine.Outcome, error) {
	if len(sites) == 0 {
		// A read-free, write-free transaction has nothing to commit.
		return engine.OutcomeCommitted, nil
	}
	wait := clock.NewBudget(s.api.Timeout).CommitWait
	if !s.touched[s.api.Self] {
		return s.api.Client.Commit(sites[0], s.txid, sites, wait)
	}
	h, err := s.api.Site.Begin(s.txid, sites, s.api.Paradigm == "decentralized")
	if err != nil {
		// The protocol never started, so no site voted and nothing else
		// will release the touched sites' locks: abort them here. After a
		// started protocol (or a forwarded Commit) fails, the outcome is
		// unknown and an abort could split the decision, so those errors
		// leave the sites to the protocol.
		s.abortLocked()
		return engine.OutcomePending, err
	}
	return h.Wait(wait)
}
