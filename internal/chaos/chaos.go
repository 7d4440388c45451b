// Package chaos declares hostile network environments for the deterministic
// simulator: multi-region WAN topologies laid over a transport.SimNetwork
// (per-link delay distributions, loss, reorder), and a schedule DSL of timed
// events — partitions, heals, gray-outs, crashes, timeout skews — stamped in
// virtual time. The package only *describes* environments; internal/dst
// applies the events to a running cluster, and cmd/dst -hostile all turns
// the resulting runs into the 2PC-vs-3PC hostility matrix (BENCH_chaos.json).
//
// Everything here is deterministic: delays and losses are sampled from the
// SimNetwork's seeded generator against the simulation's virtual clock, so a
// (topology, schedule, seed) triple replays byte-for-byte.
package chaos

import (
	"fmt"
	"time"

	"nbcommit/internal/transport"
)

// Topology is a multi-region cluster: Regions regions of PerRegion sites
// each, numbered 1..Regions*PerRegion in region order (region r owns sites
// r*PerRegion+1 .. (r+1)*PerRegion). Links inside a region use Intra; links
// crossing a region boundary use Cross.
type Topology struct {
	Name      string
	Regions   int
	PerRegion int
	Intra     transport.LinkModel
	Cross     transport.LinkModel
}

// WAN builds a topology with explicit link models.
func WAN(name string, regions, perRegion int, intra, cross transport.LinkModel) Topology {
	return Topology{Name: name, Regions: regions, PerRegion: perRegion, Intra: intra, Cross: cross}
}

// DefaultWAN is the canonical hostile geography: sub-millisecond uniform
// intra-region links and heavy-tailed 40–120ms cross-region links (lognormal
// around a 60ms median), with a small reorder window and light loss on the
// long haul.
func DefaultWAN(regions, perRegion int) Topology {
	return Topology{
		Name:      fmt.Sprintf("wan-%dx%d", regions, perRegion),
		Regions:   regions,
		PerRegion: perRegion,
		Intra: transport.LinkModel{
			Delay:         transport.UniformDelay(500*time.Microsecond, 1500*time.Microsecond),
			ReorderWindow: 200 * time.Microsecond,
		},
		Cross: transport.LinkModel{
			Delay:         transport.LognormalDelay(60*time.Millisecond, 0.35),
			Loss:          0.01,
			ReorderWindow: 2 * time.Millisecond,
		},
	}
}

// Sites returns the cluster size.
func (t Topology) Sites() int { return t.Regions * t.PerRegion }

// Region returns the 0-based region of a 1-based site ID.
func (t Topology) Region(site int) int { return (site - 1) / t.PerRegion }

// RegionSites returns the 1-based site IDs of one region.
func (t Topology) RegionSites(region int) []int {
	out := make([]int, 0, t.PerRegion)
	for s := region*t.PerRegion + 1; s <= (region+1)*t.PerRegion; s++ {
		out = append(out, s)
	}
	return out
}

// Apply installs the topology's link models on the network: Intra on every
// directed link within a region, Cross on every directed link between
// regions.
func (t Topology) Apply(n *transport.SimNetwork) {
	for a := 1; a <= t.Sites(); a++ {
		for b := 1; b <= t.Sites(); b++ {
			if a == b {
				continue
			}
			if t.Region(a) == t.Region(b) {
				n.SetLink(a, b, t.Intra)
			} else {
				n.SetLink(a, b, t.Cross)
			}
		}
	}
}

// CrossPairs returns every ordered site pair (a, b) with a inside the region
// and b outside — the directed links a symmetric region partition cuts in
// both directions, or an asymmetric one cuts outbound only.
func (t Topology) CrossPairs(region int) [][2]int {
	var out [][2]int
	for _, a := range t.RegionSites(region) {
		for b := 1; b <= t.Sites(); b++ {
			if t.Region(b) != region {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// EventKind enumerates the hostile schedule's timed event types.
type EventKind int

const (
	// EventPartitionRegion cuts every link between Region and the rest of
	// the cluster, both directions.
	EventPartitionRegion EventKind = iota
	// EventHealRegion restores every link between Region and the rest,
	// flushing held in-flight messages.
	EventHealRegion
	// EventIsolateOutbound blocks every link FROM Site while inbound links
	// keep delivering — the asymmetric partition: the site hears everyone,
	// nobody hears it.
	EventIsolateOutbound
	// EventHealOutbound restores Site's outbound links.
	EventHealOutbound
	// EventGray makes every link touching Site run Factor× slower while the
	// failure detector keeps reporting it alive.
	EventGray
	// EventClearGray restores Site to healthy speed.
	EventClearGray
	// EventCrash crash-stops Site (reliably reported, per the paper).
	EventCrash
	// EventRecover restarts Site from its WAL.
	EventRecover
	// EventSkewTimeout multiplies Site's protocol timeout by Factor — a
	// clock-skewed or misconfigured failure detector.
	EventSkewTimeout
)

func (k EventKind) String() string {
	switch k {
	case EventPartitionRegion:
		return "partition-region"
	case EventHealRegion:
		return "heal-region"
	case EventIsolateOutbound:
		return "isolate-outbound"
	case EventHealOutbound:
		return "heal-outbound"
	case EventGray:
		return "gray"
	case EventClearGray:
		return "clear-gray"
	case EventCrash:
		return "crash"
	case EventRecover:
		return "recover"
	case EventSkewTimeout:
		return "skew-timeout"
	}
	return "unknown"
}

// Event is one timed entry in a hostile schedule. At is virtual time from
// the start of the run.
type Event struct {
	At     time.Duration
	Kind   EventKind
	Region int     // EventPartitionRegion, EventHealRegion
	Site   int     // site-scoped events
	Factor float64 // EventGray, EventSkewTimeout
}

func (e Event) String() string {
	switch e.Kind {
	case EventPartitionRegion, EventHealRegion:
		return fmt.Sprintf("%s region=%d at=%s", e.Kind, e.Region, e.At)
	case EventGray, EventSkewTimeout:
		return fmt.Sprintf("%s site=%d factor=%.1f at=%s", e.Kind, e.Site, e.Factor, e.At)
	default:
		return fmt.Sprintf("%s site=%d at=%s", e.Kind, e.Site, e.At)
	}
}

// PartitionRegion cuts a region off at virtual time at.
func PartitionRegion(at time.Duration, region int) Event {
	return Event{At: at, Kind: EventPartitionRegion, Region: region}
}

// HealRegion reconnects a region at virtual time at.
func HealRegion(at time.Duration, region int) Event {
	return Event{At: at, Kind: EventHealRegion, Region: region}
}

// IsolateOutbound cuts a site's outbound links only (asymmetric partition).
func IsolateOutbound(at time.Duration, site int) Event {
	return Event{At: at, Kind: EventIsolateOutbound, Site: site}
}

// HealOutbound restores a site's outbound links.
func HealOutbound(at time.Duration, site int) Event {
	return Event{At: at, Kind: EventHealOutbound, Site: site}
}

// Gray slows every link touching site by factor from virtual time at.
func Gray(at time.Duration, site int, factor float64) Event {
	return Event{At: at, Kind: EventGray, Site: site, Factor: factor}
}

// ClearGray restores a gray site to healthy speed.
func ClearGray(at time.Duration, site int) Event {
	return Event{At: at, Kind: EventClearGray, Site: site}
}

// Crash crash-stops a site at virtual time at.
func Crash(at time.Duration, site int) Event {
	return Event{At: at, Kind: EventCrash, Site: site}
}

// Recover restarts a crashed site at virtual time at.
func Recover(at time.Duration, site int) Event {
	return Event{At: at, Kind: EventRecover, Site: site}
}

// SkewTimeout multiplies a site's protocol timeout by factor at virtual
// time at.
func SkewTimeout(at time.Duration, site int, factor float64) Event {
	return Event{At: at, Kind: EventSkewTimeout, Site: site, Factor: factor}
}
