package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSimNetworkConcurrentChaos drives concurrent schedule-event application
// (block/unblock, gray, link swaps, crash/re-attach) against concurrent
// senders and a take/peek scheduler loop. It asserts nothing beyond internal
// consistency — its job is to fail under -race if any chaos mutator touches
// SimNetwork state outside the lock.
func TestSimNetworkConcurrentChaos(t *testing.T) {
	clk := struct {
		mu  sync.Mutex
		cur time.Time
	}{cur: time.Unix(1000, 0)}
	now := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.cur
	}

	n := NewSimNetwork()
	n.Seed(11)
	n.UseClock(now)
	const sites = 4
	eps := make([]Endpoint, sites+1)
	for id := 1; id <= sites; id++ {
		eps[id] = n.Endpoint(id)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Senders: every site sprays every other site.
	for id := 1; id <= sites; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				to := 1 + (id+i)%sites
				if to == id {
					to = 1 + to%sites
				}
				eps[id].Send(Message{To: to, Kind: fmt.Sprintf("m%d-%d", id, i)})
			}
		}(id)
	}

	// Chaos applier: timed-schedule events arriving while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			a, b := 1+i%sites, 1+(i+1)%sites
			switch i % 6 {
			case 0:
				n.BlockOneWay(a, b)
			case 1:
				n.UnblockOneWay(a, b)
			case 2:
				n.SetGray(a, 10)
			case 3:
				n.SetGray(a, 1)
			case 4:
				n.SetLink(a, b, LinkModel{Delay: UniformDelay(time.Millisecond, 5*time.Millisecond), Loss: 0.05})
			case 5:
				n.Block(a, b)
				n.Unblock(a, b)
			}
		}
		// One full crash + revive cycle mid-traffic. The sender keeps its old
		// endpoint handle, which re-attaching makes valid again.
		n.Crash(2)
		n.Endpoint(2)
	}()

	// Scheduler: advances the clock and consumes deliverable messages.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := n.Take(0); ok {
				continue
			}
			n.peek(0)
			n.Pending()
			n.inFlight()
			if due, ok := n.NextDue(); ok {
				clk.mu.Lock()
				if due.After(clk.cur) {
					clk.cur = due
				}
				clk.mu.Unlock()
			}
		}
	}()

	// Metrics reader racing the mutators.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			n.Stats()
			for _, c := range SimDropCauses {
				n.droppedCause(c)
			}
			n.Alive(1 + i%sites)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("concurrent chaos deadlocked")
	}
	close(stop)

	// Conservation: everything sent was delivered, dropped, or is in flight.
	sent, dropped := n.Stats()
	if sent+dropped == 0 {
		t.Fatal("no traffic flowed")
	}
	// Drain what's left (heal everything first so held messages flush).
	for a := 1; a <= sites; a++ {
		for b := 1; b <= sites; b++ {
			if a != b {
				n.UnblockOneWay(a, b)
			}
		}
	}
	clk.mu.Lock()
	clk.cur = clk.cur.Add(time.Hour)
	clk.mu.Unlock()
	for {
		if _, ok := n.Take(0); !ok {
			break
		}
	}
	if left := n.inFlight(); left != 0 {
		t.Fatalf("%d messages neither deliverable nor dropped after full heal", left)
	}
}
