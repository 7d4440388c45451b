package main

import (
	"bufio"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nbcommit/internal/clock"
)

// freePorts reserves n distinct TCP ports by listening and closing.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	var (
		listeners []net.Listener
		ports     []int
	)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

// localAddrs turns ports into loopback addresses.
func localAddrs(ports []int) []string {
	addrs := make([]string, len(ports))
	for i, p := range ports {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", p)
	}
	return addrs
}

// buildNode builds the kvnode binary into a fresh temporary directory, which
// the test also uses for its WAL files.
func buildNode(t *testing.T) (bin, dir string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "kvnode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin, dir
}

// nodeTimeout is every test node's -timeout: the smallest base
// clock.TestBudgetRelations checks for kvnode processes.
const nodeTimeout = 300 * time.Millisecond

// nodeArgs returns the flags of site id in a cluster whose site i listens on
// cluster[i-1], with its WAL in dir.
func nodeArgs(id int, cluster []string, dir string, extra ...string) []string {
	var peers []string
	for i, addr := range cluster {
		if i+1 != id {
			peers = append(peers, fmt.Sprintf("%d=%s", i+1, addr))
		}
	}
	args := []string{
		"-id", fmt.Sprint(id),
		"-listen", cluster[id-1],
		"-peers", strings.Join(peers, ","),
		"-wal", filepath.Join(dir, fmt.Sprintf("n%d.wal", id)),
		"-timeout", nodeTimeout.String(),
	}
	return append(args, extra...)
}

// startNode starts a kvnode process and kills it when the test ends.
func startNode(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kill(cmd) })
	return cmd
}

// kill SIGKILLs a node and reaps it; killing one twice is harmless.
func kill(cmd *exec.Cmd) {
	cmd.Process.Kill()
	cmd.Wait()
}

type testClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialAPI(t *testing.T, addr string) *testClient {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return &testClient{conn: conn, r: bufio.NewReader(conn)}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never accepted a connection", addr)
	return nil
}

func (c *testClient) send(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(reply)
}

// waitListening waits until every addr accepts a connection. A node's client
// API can be up before its peers listen; waiting for their cluster ports
// lets its first messages to them be delivered.
func waitListening(t *testing.T, addrs ...string) {
	t.Helper()
	for _, addr := range addrs {
		dialAPI(t, addr).conn.Close()
	}
}

// commitAt commits one transaction that PUTs key = val<site> at each of
// sites, in one attempt, and returns its transaction ID. Any other reply to
// any verb fails the test.
func commitAt(t *testing.T, cl *testClient, key, val string, sites ...int) string {
	t.Helper()
	got := cl.send(t, "BEGIN")
	txid, ok := strings.CutPrefix(got, "OK ")
	if !ok {
		t.Fatalf("BEGIN = %q", got)
	}
	for _, site := range sites {
		if got := cl.send(t, fmt.Sprintf("PUT %d %s %s%d", site, key, val, site)); got != "OK" {
			t.Fatalf("%s: PUT %s at site %d = %q", txid, key, site, got)
		}
	}
	if got := cl.send(t, "COMMIT"); got != "COMMITTED" {
		t.Fatalf("%s: COMMIT %s = %q", txid, key, got)
	}
	return txid
}

// readBack polls GET of key at site until it answers VAL want, failing the
// test after ten seconds: a restarted cluster needs a moment to reconnect.
func readBack(t *testing.T, cl *testClient, site int, key, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl.send(t, "BEGIN")
		got := cl.send(t, fmt.Sprintf("GET %d %s", site, key))
		cl.send(t, "ABORT")
		if got == "VAL "+want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %d %s = %q, want VAL %s", site, key, got, want)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestClusterEndToEnd builds the kvnode binary, runs a 3-node cluster over
// real TCP, commits transactions, kills a node, keeps committing on the
// survivors, restarts the dead node from its WAL, and reads the recovered
// data back.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin, dir := buildNode(t)
	addrs := localAddrs(freePorts(t, 4))
	cluster, clientAddr := addrs[:3], addrs[3]

	startNode(t, bin, nodeArgs(1, cluster, dir, "-client", clientAddr)...)
	startNode(t, bin, nodeArgs(2, cluster, dir)...)
	n3 := startNode(t, bin, nodeArgs(3, cluster, dir)...)

	cl := dialAPI(t, clientAddr)
	defer cl.conn.Close()
	waitListening(t, cluster[1:]...)

	// Transaction across all three nodes.
	commitAt(t, cl, "shared", "v", 1, 2, 3)

	// Kill node 3; the survivors keep committing (cohort {1,2}).
	kill(n3)
	cl.send(t, "BEGIN")
	if got := cl.send(t, "PUT 2 after-kill yes"); got != "OK" {
		t.Fatalf("PUT after kill = %q", got)
	}
	if got := cl.send(t, "COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT after kill = %q", got)
	}

	// Restart node 3 from its WAL; the first transaction's data must be
	// there (recovery redo).
	startNode(t, bin, nodeArgs(3, cluster, dir)...)
	readBack(t, cl, 3, "shared", "v3")
}

// TestClusterKeepsForgottenCommitsAcrossRestart: T1 commits at all three
// sites and, once the forget grace derived from -timeout has run out, is
// forgotten everywhere; T2 then commits, its forced batches carrying T1's
// lazy end records to disk. Every node is SIGKILLed and restarted, which
// compacts each WAL before recovery. Both transactions must still read
// back, through node 2, which coordinated neither.
func TestClusterKeepsForgottenCommitsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin, dir := buildNode(t)
	addrs := localAddrs(freePorts(t, 5))
	cluster, clients := addrs[:3], addrs[3:]
	start := func(id int) *exec.Cmd {
		var extra []string
		if id <= len(clients) {
			extra = []string{"-client", clients[id-1]}
		}
		return startNode(t, bin, nodeArgs(id, cluster, dir, extra...)...)
	}
	var nodes []*exec.Cmd
	for id := 1; id <= 3; id++ {
		nodes = append(nodes, start(id))
	}

	cl := dialAPI(t, clients[0])
	waitListening(t, cluster[1:]...)
	commitAt(t, cl, "t1", "a", 1, 2, 3)
	// Past every site's grace period, and the coordinator's DEC-ACK round
	// before its own: T1 is forgotten and its end records are staged.
	time.Sleep(clock.NewBudget(nodeTimeout).Forget + 2*time.Second)
	commitAt(t, cl, "t2", "b", 1, 2, 3)
	cl.conn.Close()

	for _, n := range nodes {
		kill(n)
	}
	for id := 1; id <= 3; id++ {
		start(id)
	}
	rd := dialAPI(t, clients[1])
	defer rd.conn.Close()
	waitListening(t, cluster[0], cluster[2])
	for site := 1; site <= 3; site++ {
		readBack(t, rd, site, "t1", fmt.Sprintf("a%d", site))
		readBack(t, rd, site, "t2", fmt.Sprintf("b%d", site))
	}
}

// TestRestartedNodeMintsFreshTxIDs: node 2 coordinates a transaction on
// sites 1 and 3, is SIGKILLed and restarted from its WAL, and coordinates
// another on the same keys. The restarted node counts one more boot record,
// so its transaction ID is new: neither its own log nor its peers, which
// still hold the first transaction, refuse it, and no lock is left behind
// by a refused one. Both writes read back through node 1.
func TestRestartedNodeMintsFreshTxIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin, dir := buildNode(t)
	addrs := localAddrs(freePorts(t, 5))
	cluster, clients := addrs[:3], addrs[3:] // clients[0]: node 1, clients[1]: node 2
	startNode(t, bin, nodeArgs(1, cluster, dir, "-client", clients[0])...)
	start2 := func() *exec.Cmd { return startNode(t, bin, nodeArgs(2, cluster, dir, "-client", clients[1])...) }
	n2 := start2()
	startNode(t, bin, nodeArgs(3, cluster, dir)...)

	cl := dialAPI(t, clients[1])
	waitListening(t, cluster...)
	first := commitAt(t, cl, "k", "a", 1, 3)
	cl.conn.Close()

	kill(n2)
	start2()
	cl = dialAPI(t, clients[1])
	defer cl.conn.Close()
	second := commitAt(t, cl, "k", "b", 1, 3)
	if second == first {
		t.Fatalf("restarted node reused transaction ID %s", first)
	}

	rd := dialAPI(t, clients[0])
	defer rd.conn.Close()
	for _, site := range []int{1, 3} {
		readBack(t, rd, site, "k", fmt.Sprintf("b%d", site))
	}
}

// TestRestartedNodeCommitsOnFirstTry kills node 3 for five seconds and
// restarts it, five times. Five seconds of failed dials grow its peers'
// redial backoff to the budget's cap. The first transaction across all
// three sites after node 3 listens again, coordinated by node 3 in odd
// cycles and by node 1 in even ones, must commit: a message to node 3 sent
// inside a backoff window waits for the next dial, and the cap is below the
// call timeout.
func TestRestartedNodeCommitsOnFirstTry(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin, dir := buildNode(t)
	addrs := localAddrs(freePorts(t, 5))
	cluster, clients := addrs[:3], addrs[3:] // clients[0]: node 1, clients[1]: node 3
	startNode(t, bin, nodeArgs(1, cluster, dir, "-client", clients[0])...)
	startNode(t, bin, nodeArgs(2, cluster, dir)...)
	start3 := func() *exec.Cmd { return startNode(t, bin, nodeArgs(3, cluster, dir, "-client", clients[1])...) }
	n3 := start3()

	c1 := dialAPI(t, clients[0])
	defer c1.conn.Close()
	waitListening(t, cluster...)
	commitAt(t, c1, "warm", "w", 1, 2, 3)

	for cycle := 1; cycle <= 5; cycle++ {
		kill(n3)
		time.Sleep(5 * time.Second)
		restarted := time.Now()
		n3 = start3()
		cl, via := c1, 1
		if cycle%2 == 1 {
			cl, via = dialAPI(t, clients[1]), 3 // node 3's client API opens after its recovery
		} else {
			waitListening(t, cluster[2])
		}
		listening := time.Since(restarted)
		commitAt(t, cl, fmt.Sprintf("cycle%d", cycle), "v", 1, 2, 3)
		t.Logf("cycle %d via node %d: listening %v after restart, committed %v after restart",
			cycle, via, listening.Round(time.Millisecond), time.Since(restarted).Round(time.Millisecond))
		if cl != c1 {
			cl.conn.Close()
		}
	}
}
