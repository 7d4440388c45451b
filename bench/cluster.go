package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// buildKvnode compiles cmd/kvnode from the checkout the benchmark runs in.
// With a warm build cache this is the go command finding nothing to do, which
// is the part of set-up every run pays.
func buildKvnode(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kvnode")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/kvnode: %v\n%s", err, out)
	}
	return nil
}

// freePorts reserves n distinct loopback ports by listening on port 0 and
// closing, as cmd/kvnode/integration_test.go does.
func freePorts(n int) ([]int, error) {
	var (
		listeners []net.Listener
		ports     []int
	)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// procNode is one kvnode child process.
type procNode struct {
	id          int
	bin         string
	args        []string
	clusterAddr string
	clientAddr  string
	obsAddr     string
	logPath     string
	cmd         *exec.Cmd
	exited      chan struct{} // closed once Wait returned
	killed      atomic.Bool   // the benchmark stopped it on purpose
}

// procCluster is three kvnode processes on loopback TCP with file WALs and
// fsync on; every flag not listed in start is at its default.
type procCluster struct {
	dir   string
	nodes []*procNode
}

// liveCluster is the cluster whose processes are running, for the signal
// handler in main: a benchmark told to stop must not leave kvnodes behind.
var liveCluster atomic.Pointer[procCluster]

// startCluster spawns the nodes and returns once every client port answers.
func startCluster(bin, dir, proto string) (*procCluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(3 * numSites)
	if err != nil {
		return nil, err
	}
	addr := func(p int) string { return "127.0.0.1:" + strconv.Itoa(p) }
	c := &procCluster{dir: dir}
	liveCluster.Store(c)
	for _, id := range siteIDs() {
		c.nodes = append(c.nodes, &procNode{
			id:          id,
			bin:         bin,
			clusterAddr: addr(ports[3*(id-1)]),
			clientAddr:  addr(ports[3*(id-1)+1]),
			obsAddr:     addr(ports[3*(id-1)+2]),
			logPath:     filepath.Join(dir, fmt.Sprintf("n%d.log", id)),
		})
	}
	for _, n := range c.nodes {
		var peers []string
		for _, p := range c.nodes {
			if p.id != n.id {
				peers = append(peers, fmt.Sprintf("%d=%s", p.id, p.clusterAddr))
			}
		}
		n.args = []string{
			"-id", strconv.Itoa(n.id),
			"-listen", n.clusterAddr,
			"-client", n.clientAddr,
			"-peers", strings.Join(peers, ","),
			"-wal", filepath.Join(dir, fmt.Sprintf("n%d.wal", n.id)),
			"-proto", proto,
			"-obs-addr", n.obsAddr,
		}
	}
	if err := c.spawn(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// spawn starts every node (again, after kill: the WALs are still there) and
// waits until each one serves clients.
func (c *procCluster) spawn() error {
	for _, n := range c.nodes {
		logFile, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		n.cmd = exec.Command(n.bin, n.args...)
		n.cmd.Stdout, n.cmd.Stderr = logFile, logFile
		n.killed.Store(false)
		n.exited = make(chan struct{})
		err = n.cmd.Start()
		logFile.Close() // the child holds its own descriptor
		if err != nil {
			close(n.exited)
			return fmt.Errorf("start kvnode %d: %w", n.id, err)
		}
		go func(n *procNode) {
			_ = n.cmd.Wait() // the exit status is in the log tail the guard prints
			close(n.exited)
		}(n)
	}
	return c.waitReady(15 * time.Second)
}

// waitReady returns once every node answers a line on its client port (the
// last listener kvnode opens) and serves /healthz.
func (c *procCluster) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, n := range c.nodes {
		for {
			if err := c.dead(); err != nil {
				return err
			}
			if n.answers() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("kvnode %d never served %s\n%s", n.id, n.clientAddr, n.logTail())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func (n *procNode) answers() bool {
	cl, err := dialNode(n.clientAddr)
	if err != nil {
		return false
	}
	defer cl.close()
	if reply, err := cl.do("ABORT"); err != nil || !strings.HasPrefix(reply, "ERR") {
		return false
	}
	resp, err := (&http.Client{Timeout: time.Second}).Get("http://" + n.obsAddr + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// dead is the child-process guard: a kvnode that exited without the benchmark
// stopping it makes the run worthless, so the caller reports this error, with
// the node's last output, instead of numbers.
func (c *procCluster) dead() error {
	for _, n := range c.nodes {
		select {
		case <-n.exited:
			if !n.killed.Load() {
				return fmt.Errorf("kvnode %d exited during the run (%v); its last output:\n%s", n.id, n.cmd.ProcessState, n.logTail())
			}
		default:
		}
	}
	return nil
}

func (n *procNode) logTail() string {
	data, err := os.ReadFile(n.logPath)
	if err != nil {
		return err.Error()
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}

// kill sends SIGKILL to every node and waits until each has ended.
func (c *procCluster) kill() {
	for _, n := range c.nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			n.killed.Store(true)
			_ = n.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
		}
	}
	for _, n := range c.nodes {
		if n.exited != nil {
			<-n.exited
		}
	}
}

// stop kills the nodes and removes their WALs and logs.
func (c *procCluster) stop() {
	c.kill()
	liveCluster.CompareAndSwap(c, nil)
	os.RemoveAll(c.dir)
}

func (c *procCluster) clientAddrs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.clientAddr
	}
	return out
}

func (c *procCluster) commandLines() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = "kvnode " + strings.Join(n.args, " ")
	}
	return out
}

// scrapeAll fetches /metrics from every node.
//
// A run scrapes exactly twice: after warm-up, when every label set a workload
// uses already exists, and as the window closes. Registry.WritePrometheus
// iterates a family's series after dropping the registry lock, so a scrape
// that overlaps the first use of a new label set is a Go runtime fatal
// (concurrent map read and map write) that kills the node (ROADMAP,
// Blocking). Scraping during set-up or warm-up would risk exactly that.
func (c *procCluster) scrapeAll() ([]scrape, error) {
	out := make([]scrape, len(c.nodes))
	for i, n := range c.nodes {
		s, err := fetchProm(n.obsAddr)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// userHz is the unit of the CPU times in /proc/<pid>/stat. Linux reports them
// in USER_HZ, which is 100 on every architecture Go runs on.
const userHz = 100

// cpuSeconds returns user+system CPU time consumed so far by each node.
func (c *procCluster) cpuSeconds() ([]float64, error) {
	out := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		ticks, err := parseProcStat(string(data))
		if err != nil {
			return nil, fmt.Errorf("kvnode %d: %w", n.id, err)
		}
		out[i] = float64(ticks) / userHz
	}
	return out, nil
}

// parseProcStat returns utime+stime, fields 14 and 15 of /proc/<pid>/stat.
// The second field is the command in parentheses and may hold spaces, so
// fields are counted from the last ')'.
func parseProcStat(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:]) // f[0] is field 3
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: short line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad times in %q", stat)
	}
	return utime + stime, nil
}

// peakRSSMiB sums VmHWM, each node's peak resident set, in MiB.
func (c *procCluster) peakRSSMiB() (float64, error) {
	var kib float64
	for _, n := range c.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("kvnode %d: bad VmHWM %q", n.id, line)
				}
				kib += v
			}
		}
	}
	return kib / 1024, nil
}
