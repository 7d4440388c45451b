package sim

// Msg is a simulated protocol message.
type Msg struct {
	From, To int
	Kind     string
	Body     byte // single-byte payload: a state letter where needed
}

// Net is the simulated network: point-to-point delivery with sampled
// latency, crash-stop site failures, crash notification to the survivors
// after a detection delay, and — for the experiments that step outside the
// paper's "network never fails" assumption — partitions, under which each
// side suspects the other side's sites exactly as if they had crashed.
type Net struct {
	sim         *Sim
	latMin      Time
	latMax      Time
	detectDelay Time
	down        map[int]bool
	group       map[int]int // site -> partition group (default group 0)
	handlers    map[int]func(Msg)
	suspectFn   func(observer, suspect int)

	// Counters for the message-cost experiments.
	Sent   int
	ByKind map[string]int
}

// NewNet builds a network on the simulator with per-message latency sampled
// uniformly from [latMin, latMax] and crash detection latency detectDelay.
func NewNet(s *Sim, latMin, latMax, detectDelay Time) *Net {
	return &Net{
		sim:         s,
		latMin:      latMin,
		latMax:      latMax,
		detectDelay: detectDelay,
		down:        map[int]bool{},
		group:       map[int]int{},
		handlers:    map[int]func(Msg){},
		ByKind:      map[string]int{},
	}
}

// Handle registers the message handler for a site.
func (n *Net) Handle(site int, fn func(Msg)) { n.handlers[site] = fn }

// WatchSuspicions registers the callback invoked, per (observer, suspect)
// pair, when observer is told that suspect has failed — by a real crash
// (reliably reported, per the paper) or by a partition (the observer cannot
// distinguish the two).
func (n *Net) WatchSuspicions(fn func(observer, suspect int)) { n.suspectFn = fn }

// Alive reports whether a site is operational.
func (n *Net) Alive(site int) bool { return !n.down[site] }

// Reachable reports whether two operational sites can currently exchange
// messages.
func (n *Net) Reachable(a, b int) bool {
	return !n.down[a] && !n.down[b] && n.group[a] == n.group[b]
}

// Send transmits m; it is counted even if the destination is down or
// unreachable when it arrives (the bytes still crossed the wire).
func (n *Net) Send(m Msg) {
	if n.down[m.From] {
		return // a crashed site sends nothing
	}
	n.Sent++
	n.ByKind[m.Kind]++
	delay := n.sim.Uniform(n.latMin, n.latMax)
	n.sim.After(delay, func() {
		if n.down[m.To] || n.group[m.From] != n.group[m.To] {
			return
		}
		if h := n.handlers[m.To]; h != nil {
			h(m)
		}
	})
}

// Crash fails a site at the current virtual time; every other site is
// notified after the detection delay.
func (n *Net) Crash(site int) {
	if n.down[site] {
		return
	}
	n.down[site] = true
	if n.suspectFn == nil {
		return
	}
	n.sim.After(n.detectDelay, func() {
		for observer := range n.handlers {
			if observer != site && !n.down[observer] {
				n.suspectFn(observer, site)
			}
		}
	})
}

// Partition splits the sites into groups; messages flow only within a
// group. After the detection delay each site suspects every site outside
// its group — a partition is indistinguishable from the far side crashing.
// Sites not mentioned stay in group 0.
func (n *Net) Partition(groups ...[]int) {
	n.group = map[int]int{}
	for g, members := range groups {
		for _, site := range members {
			n.group[site] = g + 1
		}
	}
	if n.suspectFn == nil {
		return
	}
	n.sim.After(n.detectDelay, func() {
		for observer := range n.handlers {
			if n.down[observer] {
				continue
			}
			for suspect := range n.handlers {
				if suspect != observer && !n.down[suspect] && n.group[observer] != n.group[suspect] {
					n.suspectFn(observer, suspect)
				}
			}
		}
	})
}
