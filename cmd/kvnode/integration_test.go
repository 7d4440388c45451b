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

	"nbcommit/internal/remote"
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
		"-timeout", "300ms",
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
// sites, failing the test on any other outcome. A heartbeat sent before a
// peer listened failed to dial and opened a redial-backoff window; a PUT sent
// inside it is dropped and times out, so that reply alone is retried, in a
// fresh transaction, for up to ten seconds.
func commitAt(t *testing.T, cl *testClient, key, val string, sites ...int) {
	t.Helper()
	timedOut := "ERR " + remote.ErrTimeout.Error()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := cl.send(t, "BEGIN"); !strings.HasPrefix(got, "OK") {
			t.Fatalf("BEGIN = %q", got)
		}
		got := "OK"
		site := 0
		for _, site = range sites {
			if got = cl.send(t, fmt.Sprintf("PUT %d %s %s%d", site, key, val, site)); got != "OK" {
				break
			}
		}
		if got == "OK" {
			if got = cl.send(t, "COMMIT"); got != "COMMITTED" {
				t.Fatalf("COMMIT %s = %q", key, got)
			}
			return
		}
		if got != timedOut || time.Now().After(deadline) {
			t.Fatalf("PUT %s at site %d = %q", key, site, got)
		}
		cl.send(t, "ABORT")
		time.Sleep(100 * time.Millisecond)
	}
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

// TestClusterKeepsForgottenCommitsAcrossRestart: with -forget-after 1s, T1
// commits at all three sites and is forgotten everywhere; T2 then commits,
// its forced batches carrying T1's lazy end records to disk. Every node is
// SIGKILLed and restarted, which compacts each WAL before recovery. Both
// transactions must still read back, through node 2, which coordinated
// neither.
func TestClusterKeepsForgottenCommitsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin, dir := buildNode(t)
	addrs := localAddrs(freePorts(t, 5))
	cluster, clients := addrs[:3], addrs[3:]
	start := func(id int) *exec.Cmd {
		extra := []string{"-forget-after", "1s"}
		if id <= len(clients) {
			extra = append(extra, "-client", clients[id-1])
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
	time.Sleep(3 * time.Second)
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
