// Command bench is this repository's end-to-end benchmark: it builds
// cmd/kvnode, runs three real kvnode processes per workload, drives them
// through internal/nodeapi client sockets, checks every answer, and reports
// the end-to-end metrics BENCHMARK.json gates on and a per-layer budget. See
// README.md in this directory.
//
//	go run ./bench -seed 1                 every workload, both passes, a report
//	go run ./bench -aa                     the same twice, and how far the two agree
//	go run ./bench --workload xshard-3pc --seed 1 --seconds 15 --trace 0
//	                                       one run as BENCHMARK.json's command makes it
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeconds is run_seconds in BENCHMARK.json: the measured window of
	// the process pass. The issue asked for 25 s; the builder's contract allows
	// 3420 s for 92 runs with their set-up and checks, so every window is
	// shortened by the same factor. Never below 10 s.
	defaultSeconds = 20
	nSlices        = 5
	setupReps      = 5
	maxConns       = numSites
)

// warmupFor scales the issue's 3 s warm-up per 25 s window.
func warmupFor(window time.Duration) time.Duration { return window * 3 / 25 }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with one JSON line (BENCHMARK.json's command); empty: all of them, both passes")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the key, value and operation sequences")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured window of the process pass, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.aa, "aa", false, "run everything twice on the same code and print how far the two runs agree")
	flag.Parse()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if c := liveCluster.Load(); c != nil {
			c.stop()
		}
		os.Exit(130)
	}()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that measured but whose answers were wrong.
var errIncorrect = errors.New("operations failed or a correctness check missed")

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "kvnode", "main.go")); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}
	outDir := filepath.Join(root, "bench", "out") // result.json and trace-<workload>.json
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := passConfig{
		root: root, buildDir: filepath.Join(root, ".bench_build"), outDir: outDir, seed: o.seed,
		conns:  min(runtime.NumCPU(), maxConns),
		window: time.Duration(o.seconds) * time.Second, nSlices: nSlices,
	}
	base.warmup = warmupFor(base.window)

	if o.workload != "" {
		wl, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		return runContract(base, wl, o)
	}
	first, err := runAll(base)
	if err != nil || !o.aa {
		return err
	}
	second, err := runAll(base)
	if err != nil {
		return err
	}
	printAA(first, second)
	return nil
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Workload  string      `json:"workload"`
	Why       string      `json:"why"`
	EndToEnd  metricSet   `json:"end_to_end,omitempty"`
	PerLayer  metricSet   `json:"per_layer,omitempty"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Check     checkReport `json:"check"`
	Env       environment `json:"env"`
}

func (r *workloadReport) correct() bool { return r.Failed == 0 && r.Check.missCount == 0 }

// measure runs the passes one workload report needs: the process pass always,
// with set-up repeated when its time is reported; the in-process passes when
// the per-layer budget is wanted.
func measure(base passConfig, wl workload, endToEndWanted, perLayerWanted bool) (*workloadReport, error) {
	c := base
	c.wl = wl
	c.setupReps = 1
	if endToEndWanted {
		c.setupReps = setupReps
	}
	if !endToEndWanted {
		// A per-layer run shares its time between the process pass and the
		// in-process passes.
		c.window = base.window / 2
		c.warmup = warmupFor(c.window)
	}
	proc, err := processPass(c)
	if err != nil {
		return nil, err
	}
	rep := &workloadReport{
		Workload: wl.name, Why: wl.why,
		Attempted: proc.attempted, Failed: proc.failed, Failures: proc.failures, Check: proc.check,
		Env: stamp(c, proc),
	}
	if endToEndWanted {
		rep.EndToEnd = fill(endToEnd, proc.values, proc.counts)
	}
	if !perLayerWanted {
		return rep, nil
	}

	t := c
	t.window = base.window / 2
	t.warmup = warmupFor(t.window)
	if wl.full {
		t.window /= 2 // the untraced in-process pass takes the other half
	}
	traced, err := inprocPass(t, true)
	if err != nil {
		return nil, err
	}
	for k, v := range traced.values {
		proc.values[k], proc.counts[k] = v, traced.counts[k]
	}
	if wl.full {
		plain, err := inprocPass(t, false)
		if err != nil {
			return nil, err
		}
		proc.values["trace.overhead_share"] = ratio(traced.commitP50, plain.commitP50) - 1
	}
	rep.PerLayer = fill(perLayer, proc.values, proc.counts)
	rep.Env.TracedWindowS = t.window.Seconds()
	rep.Env.TraceFile = filepath.Join(base.outDir, "trace-"+wl.name+".json")
	return rep, writeTrace(rep.Env.TraceFile, wl.name, traced.spans)
}

// environment is the stamp every report carries.
type environment struct {
	GitCommit     string   `json:"git_commit"`
	GoVersion     string   `json:"go_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	NProc         int      `json:"nproc"`
	Kernel        string   `json:"kernel"`
	Connections   int      `json:"connections"`
	Seed          int64    `json:"seed"`
	WarmupS       float64  `json:"warmup_s"`
	WindowS       float64  `json:"window_s"`
	SliceS        float64  `json:"slice_s"`
	TracedWindowS float64  `json:"traced_window_s,omitempty"`
	Kvnode        []string `json:"kvnode"`
	WALDir        string   `json:"wal_dir"`
	FsyncProbeMs  float64  `json:"wal.fsync_probe_ms"`
	TraceFile     string   `json:"trace_file,omitempty"`
}

func stamp(c passConfig, proc *procResult) environment {
	return environment{
		GitCommit: gitCommit(c.root), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Kernel: kernelRelease(),
		Connections: c.conns, Seed: c.seed,
		WarmupS: c.warmup.Seconds(), WindowS: c.window.Seconds(), SliceS: c.sliceLen().Seconds(),
		Kvnode: proc.commandLine, WALDir: proc.walDir, FsyncProbeMs: proc.values["wal.fsync_probe_ms"],
	}
}

// runContract is one run as BENCHMARK.json's command makes it: the report,
// then one JSON object as the last line of standard output.
func runContract(base passConfig, wl workload, o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	rep, err := measure(base, wl, o.trace == 0, o.trace == 1)
	if err != nil {
		return err
	}
	printReport(rep)
	set := rep.EndToEnd
	if o.trace == 1 {
		set = rep.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed + rep.Check.missCount, map[string]value{}}
	for name, m := range set {
		last.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

// runAll measures every workload with both passes, prints the reports and
// writes them to bench/out/result.json.
func runAll(base passConfig) ([]*workloadReport, error) {
	var reports []*workloadReport
	wrong := false
	for _, wl := range workloads {
		rep, err := measure(base, wl, true, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		printReport(rep)
		reports = append(reports, rep)
		wrong = wrong || !rep.correct()
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(base.outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if wrong {
		return nil, errIncorrect
	}
	return reports, nil
}

// printReport prints the environment stamp, the checks and every metric by
// name with its unit.
func printReport(r *workloadReport) {
	fmt.Printf("== %s: %s\n", r.Workload, r.Why)
	e := r.Env
	fmt.Printf("   commit %s, %s, GOMAXPROCS %d, nproc %d, kernel %s\n", e.GitCommit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.Kernel)
	fmt.Printf("   seed %d, C = %d connections, warm-up %g s, window %g s in %d slices of %g s", e.Seed, e.Connections, e.WarmupS, e.WindowS, nSlices, e.SliceS)
	if e.TracedWindowS > 0 {
		fmt.Printf(", traced window %g s (%s)", e.TracedWindowS, e.TraceFile)
	}
	fmt.Println()
	if e.WindowS < 25 {
		fmt.Printf("   note: windows shortened from the issue's 3 s + 25 s to fit the builder's time limit; all by the same factor\n")
	}
	for _, l := range e.Kvnode {
		fmt.Printf("   %s\n", l)
	}
	fmt.Printf("   WAL directory %s, wal.fsync_probe_ms %.4f\n", e.WALDir, e.FsyncProbeMs)
	printSet := func(title string, defs []metricDef, set metricSet) {
		if set == nil {
			return
		}
		fmt.Printf("-- %s\n", title)
		for _, d := range defs {
			m := set[d.name]
			samples := ""
			if m.N > 0 {
				samples = fmt.Sprintf("(n=%d)", m.N)
			}
			fmt.Printf("   %-34s %14.4f %-6s %s\n", d.name, m.Value, m.Unit, samples)
		}
	}
	printSet("end to end (real processes, traced pass off)", endToEnd, r.EndToEnd)
	printSet("per layer (client sockets, /metrics, /proc, traced in-process pass)", perLayer, r.PerLayer)
	if r.PerLayer != nil {
		fmt.Printf("   trace.residual_share is the driver's own time between verbs: what no layer boundary covers. Bound: 0.15.\n")
	}
	fmt.Printf("-- checks: %d operations, %d failed; %d keys read back through another node, %d transactions atomic, %d read after SIGKILL and restart; %d misses\n",
		r.Attempted, r.Failed, r.Check.KeysRead, r.Check.AtomicTxns, r.Check.RestartTxns, r.Check.missCount)
	for _, f := range append(append([]string(nil), r.Failures...), r.Check.Misses...) {
		fmt.Printf("   FAILED: %s\n", f)
	}
}

// printAA prints, for every workload and end-to-end metric, both runs' values,
// how far apart they are and the bound: the evidence behind the bounds.
func printAA(a, b []*workloadReport) {
	fmt.Printf("== A/A: two runs of the same code\n")
	fmt.Printf("   %-14s %-16s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].EndToEnd[d.name].Value, b[i].EndToEnd[d.name].Value
			diff := ratio(y-x, x)
			verdict := ""
			if max(diff, -diff) > d.bound {
				verdict = "  EXCEEDS"
			}
			fmt.Printf("   %-14s %-16s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", a[i].Workload, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
		for _, name := range []string{"nodeapi.commit_p95_ms", "nodeapi.read_p95_ms"} {
			x, y := a[i].PerLayer[name].Value, b[i].PerLayer[name].Value
			fmt.Printf("   %-14s %-16s %12.4f %12.4f %+8.1f%% %7s\n", a[i].Workload, strings.TrimPrefix(name, "nodeapi."), x, y, 100*ratio(y-x, x), "none")
		}
	}
}
