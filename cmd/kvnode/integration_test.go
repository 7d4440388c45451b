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

// TestClusterEndToEnd builds the kvnode binary, runs a 3-node cluster over
// real TCP, commits transactions, kills a node, keeps committing on the
// survivors, restarts the dead node from its WAL, and reads the recovered
// data back.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kvnode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	ports := freePorts(t, 4)
	clusterAddr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i-1]) }
	clientAddr := fmt.Sprintf("127.0.0.1:%d", ports[3])
	peersOf := func(self int) string {
		var parts []string
		for i := 1; i <= 3; i++ {
			if i != self {
				parts = append(parts, fmt.Sprintf("%d=%s", i, clusterAddr(i)))
			}
		}
		return strings.Join(parts, ",")
	}

	start := func(id int, withClient bool) *exec.Cmd {
		args := []string{
			"-id", fmt.Sprint(id),
			"-listen", clusterAddr(id),
			"-peers", peersOf(id),
			"-wal", filepath.Join(dir, fmt.Sprintf("n%d.wal", id)),
			"-timeout", "300ms",
		}
		if withClient {
			args = append(args, "-client", clientAddr)
		}
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	n1 := start(1, true)
	n2 := start(2, false)
	n3 := start(3, false)
	t.Cleanup(func() {
		for _, c := range []*exec.Cmd{n1, n2, n3} {
			if c != nil && c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	})

	cl := dialAPI(t, clientAddr)
	defer cl.conn.Close()

	// Node 1's client API can be up before its peers listen. Wait for their
	// cluster ports, so node 1's first messages to them can be delivered.
	for id := 2; id <= 3; id++ {
		dialAPI(t, clusterAddr(id)).conn.Close()
	}

	// Transaction across all three nodes. A heartbeat node 1 sent before a
	// peer listened failed to dial and opened a redial-backoff window; a PUT
	// sent inside it is dropped and times out. Retry that reply only.
	timedOut := "ERR " + remote.ErrTimeout.Error()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := cl.send(t, "BEGIN"); !strings.HasPrefix(got, "OK") {
			t.Fatalf("BEGIN = %q", got)
		}
		var got string
		site := 1
		for ; site <= 3; site++ {
			if got = cl.send(t, fmt.Sprintf("PUT %d shared v%d", site, site)); got != "OK" {
				break
			}
		}
		if site > 3 {
			if got = cl.send(t, "COMMIT"); got != "COMMITTED" {
				t.Fatalf("COMMIT = %q", got)
			}
			break
		}
		if got != timedOut || time.Now().After(deadline) {
			t.Fatalf("PUT site %d = %q", site, got)
		}
		cl.send(t, "ABORT")
		time.Sleep(100 * time.Millisecond)
	}

	// Kill node 3; the survivors keep committing (cohort {1,2}).
	n3.Process.Kill()
	n3.Wait()
	n3 = nil
	cl.send(t, "BEGIN")
	if got := cl.send(t, "PUT 2 after-kill yes"); got != "OK" {
		t.Fatalf("PUT after kill = %q", got)
	}
	if got := cl.send(t, "COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT after kill = %q", got)
	}

	// Restart node 3 from its WAL; the first transaction's data must be
	// there (recovery redo).
	n3 = start(3, false)
	deadline = time.Now().Add(10 * time.Second)
	for {
		cl.send(t, "BEGIN")
		got := cl.send(t, "GET 3 shared")
		cl.send(t, "ABORT")
		if got == "VAL v3" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 3 never recovered: GET = %q", got)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
