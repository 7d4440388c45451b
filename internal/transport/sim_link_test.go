package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// simClock is a hand-cranked virtual clock for link-model tests.
type simClock struct{ cur time.Time }

func newSimClock() *simClock                { return &simClock{cur: time.Unix(1000, 0)} }
func (c *simClock) now() time.Time          { return c.cur }
func (c *simClock) advance(d time.Duration) { c.cur = c.cur.Add(d) }

// drain advances the clock to each NextDue instant and takes every message as
// it becomes deliverable, returning "kind@offset" delivery records.
func drain(n *SimNetwork, clk *simClock) []string {
	start := clk.cur
	var out []string
	for {
		for {
			m, ok := n.Take(0)
			if !ok {
				break
			}
			out = append(out, fmt.Sprintf("%s@%v", m.Kind, clk.cur.Sub(start)))
		}
		due, ok := n.NextDue()
		if !ok {
			return out
		}
		clk.cur = due
	}
}

func TestDelayDistSample(t *testing.T) {
	n := NewSimNetwork() // for its seeded rng
	cases := []struct {
		name     string
		d        DelayDist
		min, max time.Duration
	}{
		{"none", DelayDist{}, 0, 0},
		{"fixed", FixedDelay(7 * time.Millisecond), 7 * time.Millisecond, 7 * time.Millisecond},
		{"uniform", UniformDelay(time.Millisecond, 3*time.Millisecond), time.Millisecond, 3 * time.Millisecond},
		{"uniform-degenerate", UniformDelay(5*time.Millisecond, time.Millisecond), 5 * time.Millisecond, 5 * time.Millisecond},
		{"lognormal", LognormalDelay(40*time.Millisecond, 0.35), time.Nanosecond, time.Hour},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				got := tc.d.sample(n.rng)
				if got < tc.min || got > tc.max {
					t.Fatalf("sample %d = %v outside [%v, %v]", i, got, tc.min, tc.max)
				}
			}
		})
	}
}

// TestLinkScheduleDeterminism: same seed + same send sequence = the exact same
// delivery schedule, across delay shapes, loss and reorder jitter.
func TestLinkScheduleDeterminism(t *testing.T) {
	build := func(seed int64) []string {
		clk := newSimClock()
		n := NewSimNetwork()
		n.Seed(seed)
		n.UseClock(clk.now)
		e1 := n.Endpoint(1)
		e2 := n.Endpoint(2)
		n.Endpoint(3)
		n.SetLink(1, 2, LinkModel{Delay: UniformDelay(time.Millisecond, 4*time.Millisecond), Loss: 0.2})
		n.SetLink(1, 3, LinkModel{Delay: LognormalDelay(60*time.Millisecond, 0.35), ReorderWindow: 5 * time.Millisecond})
		n.SetLink(2, 3, LinkModel{Delay: FixedDelay(2 * time.Millisecond)})
		for i := 0; i < 24; i++ {
			e1.Send(Message{To: 2, Kind: fmt.Sprintf("a%d", i)})
			e1.Send(Message{To: 3, Kind: fmt.Sprintf("b%d", i)})
			e2.Send(Message{To: 3, Kind: fmt.Sprintf("c%d", i)})
		}
		return drain(n, clk)
	}

	one, two := build(42), build(42)
	if len(one) == 0 {
		t.Fatal("no deliveries")
	}
	if fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("same seed diverged:\n%v\n%v", one, two)
	}
	other := build(43)
	if fmt.Sprint(one) == fmt.Sprint(other) {
		t.Fatal("different seeds produced the identical delivery schedule")
	}
}

// TestBlockOneWayAsymmetric: cutting 1 -> 2 drops exactly that direction at
// send time; 2 -> 1 keeps delivering.
func TestBlockOneWayAsymmetric(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)

	n.BlockOneWay(1, 2)
	e1.Send(Message{To: 2, Kind: "forward"})
	e2.Send(Message{To: 1, Kind: "reverse"})

	if got := n.Pending(); got != 1 {
		t.Fatalf("pending = %d, want only the reverse message", got)
	}
	if m, _ := n.peek(0); m.Kind != "reverse" || m.From != 2 {
		t.Fatalf("deliverable = %+v, want the 2->1 message", m)
	}
	if got := n.droppedCause(SimDropPartition); got != 1 {
		t.Fatalf("partition drops = %d, want 1", got)
	}

	n.UnblockOneWay(1, 2)
	e1.Send(Message{To: 2, Kind: "healed"})
	if got := n.Pending(); got != 2 {
		t.Fatalf("pending after heal = %d", got)
	}
}

// TestHealFlushesHeldMessages: messages already in flight when the link is cut
// are held — invisible to Pending/Take and NextDue — and delivered, not
// dropped, once the link heals.
func TestHealFlushesHeldMessages(t *testing.T) {
	clk := newSimClock()
	n := NewSimNetwork()
	n.UseClock(clk.now)
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.SetLink(1, 2, LinkModel{Delay: FixedDelay(10 * time.Millisecond)})

	e1.Send(Message{To: 2, Kind: "in-flight"})
	n.BlockOneWay(1, 2)
	clk.advance(time.Second) // due long passed, link still cut

	if got := n.Pending(); got != 0 {
		t.Fatalf("held message deliverable through a cut link (pending = %d)", got)
	}
	if _, ok := n.NextDue(); ok {
		t.Fatal("NextDue exposes a held message: a scheduler would spin on it")
	}
	if got := n.inFlight(); got != 1 {
		t.Fatalf("in-flight = %d, the held message was lost", got)
	}

	n.UnblockOneWay(1, 2)
	m, ok := n.Take(0)
	if !ok || m.Kind != "in-flight" {
		t.Fatalf("heal did not flush the held message: %+v, %v", m, ok)
	}
	if _, dropped := n.Stats(); dropped != 0 {
		t.Fatalf("heal dropped %d held messages, want 0", dropped)
	}
}

// TestGraySlowdown: a gray site stays Alive while every link touching it runs
// factor times slower; clearing the gray state restores the base delay.
func TestGraySlowdown(t *testing.T) {
	clk := newSimClock()
	n := NewSimNetwork()
	n.UseClock(clk.now)
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.SetDefaultLink(LinkModel{Delay: FixedDelay(10 * time.Millisecond)})

	n.SetGray(1, 25)
	if !n.Alive(1) {
		t.Fatal("gray flipped Alive: gray means slow, not dead")
	}
	e1.Send(Message{To: 2, Kind: "slow"})
	due, ok := n.NextDue()
	if !ok || due.Sub(clk.cur) != 250*time.Millisecond {
		t.Fatalf("gray x25 delay = %v, want 250ms", due.Sub(clk.cur))
	}

	n.SetGray(1, 1) // clear
	if !n.Alive(1) {
		t.Fatal("clearing gray flipped Alive")
	}
	clk.advance(time.Second)
	drain(n, clk)
	e1.Send(Message{To: 2, Kind: "fast"})
	due, ok = n.NextDue()
	if !ok || due.Sub(clk.cur) != 10*time.Millisecond {
		t.Fatalf("post-gray delay = %v, want 10ms", due.Sub(clk.cur))
	}
}

// TestDropCauseSumInvariant mirrors the TCP transport's
// transport_dropped_total{cause} contract: the per-cause counters partition
// the dropped total exactly.
func TestDropCauseSumInvariant(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.Endpoint(3)

	// loss: a certain-loss link eats both sends.
	n.SetLink(1, 2, LinkModel{Loss: 1.0})
	e1.Send(Message{To: 2, Kind: "lost-1"})
	e1.Send(Message{To: 2, Kind: "lost-2"})

	// partition: a blocked direction drops at send.
	n.BlockOneWay(1, 3)
	e1.Send(Message{To: 3, Kind: "cut"})
	n.UnblockOneWay(1, 3)

	// crash: one queued message purged by the crash, one sent at a dead site.
	e1.Send(Message{To: 3, Kind: "queued"})
	n.Crash(3)
	e1.Send(Message{To: 3, Kind: "to-the-dead"})

	want := map[SimDropCause]uint64{SimDropLoss: 2, SimDropPartition: 1, SimDropCrash: 2}
	var sum uint64
	for _, c := range SimDropCauses {
		if got := n.droppedCause(c); got != want[c] {
			t.Fatalf("dropped{cause=%s} = %d, want %d", c, got, want[c])
		}
		sum += n.droppedCause(c)
	}
	if _, dropped := n.Stats(); dropped != sum {
		t.Fatalf("cause counters sum to %d, Stats reports %d dropped", sum, dropped)
	}
	if sum != 5 {
		t.Fatalf("total drops = %d, want 5", sum)
	}
}

// TestReorderWindowOvertake: reorder jitter lets messages on one link overtake
// each other without the base delay changing, and stays seed-deterministic.
func TestReorderWindowOvertake(t *testing.T) {
	clk := newSimClock()
	n := NewSimNetwork()
	n.Seed(7)
	n.UseClock(clk.now)
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.SetLink(1, 2, LinkModel{Delay: FixedDelay(time.Millisecond), ReorderWindow: 10 * time.Millisecond})

	for i := 0; i < 16; i++ {
		e1.Send(Message{To: 2, Kind: fmt.Sprintf("m%d", i)})
	}
	order := drain(n, clk)
	if len(order) != 16 {
		t.Fatalf("delivered %d of 16", len(order))
	}
	inOrder := true
	for i, rec := range order {
		if !strings.HasPrefix(rec, fmt.Sprintf("m%d@", i)) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("reorder window never reordered 16 messages — jitter not applied")
	}
}
