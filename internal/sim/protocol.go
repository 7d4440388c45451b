package sim

import "sort"

// Protocol selects which commit protocol a simulated transaction runs. Both
// are central-site 3PC; they differ in the termination protocol.
type Protocol int

const (
	// Central3PC is the central-site three-phase commit (slide 35) with the
	// paper's backup-coordinator termination protocol.
	Central3PC Protocol = iota
	// Quorum3PC is the quorum-based extension (in the spirit of the paper's
	// [SKEE81a] reference): central-site 3PC whose termination protocol
	// requires a majority quorum to commit or abort, restoring safety under
	// network partitions at the price of blocking minority groups.
	Quorum3PC
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case Central3PC:
		return "central-3PC"
	case Quorum3PC:
		return "quorum-3PC"
	default:
		return "unknown"
	}
}

// Message kinds (mirroring the engine's wire protocol).
const (
	kXact      = "XACT"
	kYes       = "YES"
	kNo        = "NO"
	kPrepare   = "PREPARE"
	kAck       = "ACK"
	kCommit    = "COMMIT"
	kAbort     = "ABORT"
	kNudge     = "NUDGE"      // tell the elected backup to act
	kTermState = "TERM-STATE" // backup phase 1
	kTermAck   = "TERM-ACK"
)

// Fixed environment: survivors learn of a crash (or a partition) this long
// after it happens, and a run ends at the horizon.
const (
	detectDelay = 5 * Millisecond
	horizon     = 10 * Second
)

// Config parameterizes one simulated transaction.
type Config struct {
	N        int      // number of sites (site 1 coordinates central protocols)
	Protocol Protocol // which commit protocol to run
	Seed     int64    // RNG seed (message latencies)

	// LatencyMin/Max bound per-message delivery time. Defaults 1–2ms.
	LatencyMin, LatencyMax Time
	// Stagger is the serialization delay between the individual messages of
	// one round — a crash mid-round transmits only a prefix, the paper's
	// partially-completed state transition. Default 20us.
	Stagger Time

	// CrashAt schedules site failures (virtual time). Sites crash at most
	// once.
	CrashAt map[int]Time
	// VoteNo marks sites that unilaterally abort.
	VoteNo map[int]bool
	// SkipBackupPhase1 is the A1 ablation: the backup coordinator skips
	// phase 1 of the backup protocol (no synchronizing round) and sends its
	// decision immediately. Unsafe when the backup itself then crashes.
	SkipBackupPhase1 bool
	// PartitionAt, when nonzero, splits the network into PartitionGroups at
	// that virtual time — stepping outside the paper's "network never
	// fails" assumption to study its necessity (and the quorum fix).
	PartitionAt     Time
	PartitionGroups [][]int
	// Weights assigns per-site vote weights for Quorum3PC (default 1 each).
	// Skeen's quorum protocol supports weighted votes, e.g. to let one
	// well-provisioned site carry a partition by itself.
	Weights map[int]int
}

// SiteOutcome is a site's fate in the simulation.
type SiteOutcome struct {
	Phase     byte // final local state letter: q/w/p/c/a
	Crashed   bool
	Blocked   bool // alive but unable to terminate (a quorum-less group)
	DecidedAt Time // virtual time of local commit/abort; 0 if none
}

// Result summarizes one simulated transaction.
type Result struct {
	Sites map[int]SiteOutcome
	// Blocked reports whether any operational site ended blocked.
	Blocked bool
	// Consistent is false if any two sites (crashed ones included — they
	// hold their decision on stable storage) decided differently.
	Consistent bool
	// Committed/Aborted report the decision reached by decided sites.
	Committed bool
	Aborted   bool
	// Messages is the total network messages sent.
	Messages int
	// Done is the virtual time when the last operational site decided
	// (0 when some operational site never decided).
	Done Time
}

type site struct {
	r       *runner
	id      int
	phase   byte
	crashed bool
	blocked bool
	decided Time

	responses map[int]byte // coordinator: the slaves' votes
	acks      map[int]bool
	ownNo     bool

	terminating bool
	termAcks    map[int]bool

	qStates map[int]byte // quorum termination: gathered group states
	qTarget byte         // quorum termination: 'p' (commit) or 'b' (abort)
}

type runner struct {
	cfg   Config
	sim   *Sim
	net   *Net
	sites map[int]*site
}

// RunTransaction simulates one distributed transaction under the given
// configuration and returns its fate.
func RunTransaction(cfg Config) Result {
	if cfg.LatencyMax == 0 {
		cfg.LatencyMin, cfg.LatencyMax = 1*Millisecond, 2*Millisecond
	}
	if cfg.Stagger == 0 {
		cfg.Stagger = 20 * Microsecond
	}
	s := New(cfg.Seed)
	r := &runner{
		cfg:   cfg,
		sim:   s,
		net:   NewNet(s, cfg.LatencyMin, cfg.LatencyMax, detectDelay),
		sites: map[int]*site{},
	}
	for i := 1; i <= cfg.N; i++ {
		st := &site{r: r, id: i, phase: 'q'}
		r.sites[i] = st
		r.net.Handle(i, st.onMsg)
	}
	r.net.WatchSuspicions(func(observer, suspect int) {
		if st := r.sites[observer]; st != nil && !st.crashed {
			st.onSuspect(suspect)
		}
	})
	for id, at := range cfg.CrashAt {
		s.At(at, func() {
			r.sites[id].crashed = true
			r.net.Crash(id)
		})
	}
	if cfg.PartitionAt > 0 {
		s.At(cfg.PartitionAt, func() { r.net.Partition(cfg.PartitionGroups...) })
	}

	s.At(0, r.sites[1].startCoordinator)
	s.RunUntil(horizon)

	return r.result()
}

func (r *runner) result() Result {
	res := Result{
		Sites:      map[int]SiteOutcome{},
		Consistent: true,
		Messages:   r.net.Sent,
	}
	allDecided := true
	for id, st := range r.sites {
		res.Sites[id] = SiteOutcome{
			Phase: st.phase, Crashed: st.crashed, Blocked: st.blocked, DecidedAt: st.decided,
		}
		switch st.phase {
		case 'c':
			res.Committed = true
		case 'a':
			res.Aborted = true
		}
		if !st.crashed {
			if st.blocked {
				res.Blocked = true
			}
			if st.decided == 0 {
				allDecided = false
			} else if st.decided > res.Done {
				res.Done = st.decided
			}
		}
	}
	if res.Committed && res.Aborted {
		res.Consistent = false
	}
	if !allDecided {
		res.Done = 0
	}
	return res
}

// others returns every site ID except self, ascending.
func (r *runner) others(self int) []int {
	out := make([]int, 0, r.cfg.N-1)
	for i := 1; i <= r.cfg.N; i++ {
		if i != self {
			out = append(out, i)
		}
	}
	return out
}

// broadcast sends kind to each destination with the configured stagger; a
// crash mid-round truncates the remaining sends (partially completed
// transition).
func (st *site) broadcast(dests []int, kind string, body byte) {
	for i, d := range dests {
		st.r.sim.After(Time(i)*st.r.cfg.Stagger, func() {
			st.r.net.Send(Msg{From: st.id, To: d, Kind: kind, Body: body})
		})
	}
}

func (st *site) send(to int, kind string, body byte) {
	st.r.net.Send(Msg{From: st.id, To: to, Kind: kind, Body: body})
}

func (st *site) decide(phase byte) {
	if st.phase == 'c' || st.phase == 'a' {
		return
	}
	st.phase = phase
	st.blocked = false
	st.decided = st.r.sim.Now()
}

func (st *site) final() bool { return st.phase == 'c' || st.phase == 'a' }

// aliveOthers lists the sites other than self that are operational AND
// reachable (a partitioned-away site is indistinguishable from a crashed
// one).
func (st *site) aliveOthers() []int {
	var out []int
	for _, id := range st.r.others(st.id) {
		if st.r.net.Reachable(st.id, id) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// weight returns a site's vote weight (default 1).
func (st *site) weight(id int) int {
	if w, ok := st.r.cfg.Weights[id]; ok && w > 0 {
		return w
	}
	return 1
}

// quorum returns the commit/abort quorum: a strict majority of the total
// weight.
func (st *site) quorum() int {
	total := 0
	for i := 1; i <= st.r.cfg.N; i++ {
		total += st.weight(i)
	}
	return total/2 + 1
}
