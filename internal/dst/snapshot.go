package dst

import (
	"errors"
	"fmt"
	"strings"

	"nbcommit/internal/clock"
	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
)

// This file plugs real multi-version kv stores into the simulated cluster
// and checks snapshot consistency across the crash-point enumeration: at
// every instant the scheduler is about to advance virtual time, every alive
// site's stable snapshot is sampled and must satisfy
//
//   - atomicity: a transaction's write set is visible all-or-nothing — a
//     snapshot never shows a torn write set;
//   - stability: the stable timestamp sits strictly below the site's oldest
//     in-doubt prepare, so a snapshot never reads around an unresolved write;
//   - monotonicity: a site's stable timestamp never moves backwards while
//     the site stays up (recovery rebuilds the store and restarts its clock,
//     so the baseline resets per incarnation);
//   - isolation from aborts: a write set whose transaction ultimately aborts
//     is never visible in any sample, at any site, at any instant;
//   - silence: snapshot reads exchange no commit-protocol messages — the
//     wire carries only the write transactions' traffic (the fast-path
//     analog of paxosNoTermination).
//
// The workload is two cross-site transactions over the full cohort, each
// writing a two-key pair (same value) at every site: t1 commits, t2 is
// scripted to abort by never being staged at the highest-numbered site, so
// that site's Prepare votes NO. Distinct keys per transaction keep the
// inline deterministic Prepare free of lock waits.

// snapKeys returns the two keys a workload transaction writes at every site.
func snapKeys(txid string) (string, string) { return "a-" + txid, "b-" + txid }

// snapHarness owns the kv stores behind a simulated cluster and accumulates
// sample-time evidence for the end-of-run checks.
type snapHarness struct {
	stores map[int]*kv.Store
	epoch  map[int]int // store incarnation; bumped by every (re)build
	txids  []string

	lastEpoch  map[int]int
	lastStable map[int]uint64
	visible    map[string]map[int]bool // txid -> sites where a sample saw it
	samples    int
	// inDoubtSamples counts samples taken while some site held an unresolved
	// prepare — evidence the watermark invariant was tested in anger, not
	// only on quiescent stores.
	inDoubtSamples int
	violations     []string
}

func newSnapHarness() *snapHarness {
	return &snapHarness{
		stores:     map[int]*kv.Store{},
		epoch:      map[int]int{},
		txids:      []string{"t1", "t2"},
		lastEpoch:  map[int]int{},
		lastStable: map[int]uint64{},
		visible:    map[string]map[int]bool{},
	}
}

func (h *snapHarness) violate(format string, args ...any) {
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
}

// mkResource is the Config.mkResource hook: a fresh store per site
// incarnation, on the cluster's virtual clock so nothing in the store ever
// consults real time, behind the production adapter.
func (h *snapHarness) mkResource(site int, clk clock.Clock) engine.Resource {
	st := kv.NewStore(kv.Options{Clock: clk})
	h.stores[site] = st
	h.epoch[site]++
	return dtx.StoreResource{Store: st}
}

// launch stages the workload writes and starts both commit protocols. It
// also installs the sampling observer, which runs before every virtual-time
// advance and once at run exit.
func (h *snapHarness) launch(c *cluster) error {
	refuse := c.ids[len(c.ids)-1]
	for _, txid := range h.txids {
		a, b := snapKeys(txid)
		for _, id := range c.ids {
			if txid == "t2" && id == refuse {
				continue // never staged: Prepare at this site votes NO
			}
			st := h.stores[id]
			if err := st.Begin(txid); err != nil {
				return err
			}
			if err := st.Put(txid, a, txid); err != nil {
				return err
			}
			if err := st.Put(txid, b, txid); err != nil {
				return err
			}
		}
	}
	c.observe = func() { h.sample(c) }
	if err := c.begin(1, "t1", false); err != nil {
		return err
	}
	return c.begin(1, "t2", false)
}

// sample checks every alive site's stable snapshot at one instant.
func (h *snapHarness) sample(c *cluster) {
	wire := len(c.deliveries)
	for _, id := range c.ids {
		if c.down[id] {
			continue
		}
		st := h.stores[id]
		stable := st.StableTS()
		if w := st.Watermark(); w != 0 {
			h.inDoubtSamples++
			if stable >= w {
				h.violate("site %d stable timestamp %d not below in-doubt watermark %d", id, stable, w)
			}
		}
		if ep := h.epoch[id]; ep == h.lastEpoch[id] {
			if stable < h.lastStable[id] {
				h.violate("site %d stable timestamp moved backwards: %d -> %d", id, h.lastStable[id], stable)
			}
			h.lastStable[id] = stable
		} else {
			h.lastEpoch[id], h.lastStable[id] = ep, stable
		}
		for _, txid := range h.txids {
			a, b := snapKeys(txid)
			va, errA := st.ReadAt(stable, a)
			vb, errB := st.ReadAt(stable, b)
			switch {
			case errA == nil && errB == nil && va == txid && vb == txid:
				if h.visible[txid] == nil {
					h.visible[txid] = map[int]bool{}
				}
				h.visible[txid][id] = true
			case errors.Is(errA, kv.ErrNotFound) && errors.Is(errB, kv.ErrNotFound):
				// Not visible yet (or ever): fine.
			default:
				h.violate("torn snapshot of %s at site %d (ts %d): a=(%q,%v) b=(%q,%v)",
					txid, id, stable, va, errA, vb, errB)
			}
		}
	}
	if len(c.deliveries) != wire {
		h.violate("snapshot sampling generated %d protocol messages", len(c.deliveries)-wire)
	}
	h.samples++
}

// finalCheck runs once the schedule has settled (crashed site recovered,
// every transaction resolved everywhere) and folds the harness verdicts into
// the report.
func (h *snapHarness) finalCheck(c *cluster, r *Report) {
	snap := c.snapshot()
	for _, txid := range h.txids {
		// The global outcome: any site that decided (consistency across
		// sites is checked separately by checkConsistency). With garbage
		// collection running in-sim the whole cohort may have settled and
		// forgotten before the final check, so when no live view remembers,
		// fall back to durable evidence: commit records are always forced,
		// so a committed transaction leaves RecCommitted in some WAL; no
		// such record anywhere means the transaction did not commit and the
		// abort expectations below apply.
		outcome := engine.OutcomePending
		for _, v := range snap[txid] {
			if v.known && v.outcome != engine.OutcomePending {
				outcome = v.outcome
				break
			}
		}
		if outcome == engine.OutcomePending {
			for _, id := range c.ids {
				if c.durableOutcome(id, txid) == engine.OutcomeCommitted {
					outcome = engine.OutcomeCommitted
					break
				}
			}
		}
		if outcome == engine.OutcomeAborted && len(h.visible[txid]) > 0 {
			var sites []int
			for id := range h.visible[txid] {
				sites = append(sites, id)
			}
			h.violate("aborted %s was visible in a snapshot at sites %v", txid, sites)
		}
		a, b := snapKeys(txid)
		for _, id := range c.ids {
			if c.down[id] {
				continue
			}
			st := h.stores[id]
			stable := st.StableTS()
			va, errA := st.ReadAt(stable, a)
			vb, errB := st.ReadAt(stable, b)
			switch outcome {
			case engine.OutcomeCommitted:
				if errA != nil || errB != nil || va != txid || vb != txid {
					h.violate("committed %s missing from site %d's final snapshot: a=(%q,%v) b=(%q,%v)",
						txid, id, va, errA, vb, errB)
				}
			default: // aborted, or never decided anywhere
				if errA == nil || errB == nil {
					h.violate("%s (outcome %v) present in site %d's final snapshot", txid, outcome, id)
				}
			}
		}
	}
	// The fast-path silence scan: every message on the wire belongs to a
	// write transaction. Snapshot reads — h.samples rounds of them — sent
	// nothing, and no read-only transaction ID ("ro-" at the dtx/nodeapi
	// layers) ever appears in a delivery.
	writes := map[string]bool{}
	for _, txid := range h.txids {
		writes[txid] = true
	}
	for _, m := range c.deliveries {
		if m.TxID == "" {
			continue
		}
		if strings.HasPrefix(m.TxID, "ro-") {
			h.violate("read-only transaction on the wire: %s", m)
		} else if !writes[m.TxID] {
			h.violate("message for unknown transaction: %s", m)
		}
	}
	if h.samples == 0 {
		h.violate("observer never sampled a snapshot")
	}
	r.Violations = append(r.Violations, h.violations...)
}

// RunSnapshotCrashPoint executes one single-crash schedule of the snapshot
// workload over kv-backed resources and checks snapshot consistency on top
// of the protocol invariants.
func RunSnapshotCrashPoint(cfg Config, cp CrashPoint) Report {
	h := newSnapHarness()
	cfg.mkResource = h.mkResource
	r, c := runCrashPointFrom(cfg, cp, h.launch)
	h.finalCheck(c, &r)
	return r
}

// ExploreSnapshotCrashPoints enumerates every single-crash schedule of the
// snapshot workload — one crash per WAL append and per message delivery seen
// in the fault-free reference execution — and runs each with full snapshot
// sampling.
func ExploreSnapshotCrashPoints(cfg Config) []Report {
	cfg = cfg.withDefaults()
	refHarness := newSnapHarness()
	ref := cfg
	ref.mkResource = refHarness.mkResource
	var reports []Report
	for _, cp := range enumerateCrashPointsFrom(ref, refHarness.launch) {
		reports = append(reports, RunSnapshotCrashPoint(cfg, cp))
	}
	return reports
}
