package failure

import (
	"sync"
	"testing"
	"time"

	"nbcommit/internal/transport"
)

// The in-memory SimNetwork is the perfect (oracle) Detector: Alive reports
// exactly its crash state.
func TestOracleAliveTracksNetwork(t *testing.T) {
	net := transport.NewSimNetwork()
	net.Endpoint(1)
	net.Endpoint(2)
	var d Detector = net
	if !d.Alive(1) || !d.Alive(2) {
		t.Fatal("sites should be alive")
	}
	net.Crash(2)
	if d.Alive(2) {
		t.Fatal("site 2 should be dead")
	}
	if !d.Alive(1) {
		t.Fatal("site 1 should be alive")
	}
}

// Watch reports every crash of the oracle SimNetwork, in the order they
// happen.
func TestOracleWatch(t *testing.T) {
	net := transport.NewSimNetwork()
	net.Endpoint(1)
	net.Endpoint(2)
	net.Endpoint(3)
	var d Detector = net

	var mu sync.Mutex
	var seen []int
	d.Watch(func(site int) {
		mu.Lock()
		seen = append(seen, site)
		mu.Unlock()
	})
	net.Crash(3)
	net.Crash(2)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 2 {
		t.Fatalf("watched crashes = %v", seen)
	}
}

func TestHeartbeatDetectsSilence(t *testing.T) {
	var mu sync.Mutex
	sent := map[int]int{}
	d := NewHeartbeat(1, []int{1, 2, 3}, 5*time.Millisecond, 25*time.Millisecond,
		func(to int) {
			mu.Lock()
			sent[to]++
			mu.Unlock()
		})
	crashes := make(chan int, 8)
	d.Watch(func(site int) { crashes <- site })
	d.Start()
	defer d.Stop()

	// Keep site 2 alive; let site 3 go silent.
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(3 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				d.Observe(2)
			}
		}
	}()
	defer close(stop)

	select {
	case site := <-crashes:
		if site != 3 {
			t.Fatalf("detected crash of %d, want 3", site)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash of silent site not detected")
	}
	if d.Alive(3) {
		t.Fatal("site 3 should be suspected")
	}
	if !d.Alive(2) {
		t.Fatal("site 2 should be alive")
	}
	if !d.Alive(1) {
		t.Fatal("self is always alive")
	}
	mu.Lock()
	defer mu.Unlock()
	if sent[2] == 0 || sent[3] == 0 {
		t.Fatalf("heartbeats not sent: %v", sent)
	}
	if sent[1] != 0 {
		t.Fatal("detector heartbeats itself")
	}
}

func TestHeartbeatReinstatesOnObserve(t *testing.T) {
	d := NewHeartbeat(1, []int{1, 2}, 5*time.Millisecond, 20*time.Millisecond, func(int) {})
	crashes := make(chan int, 8)
	d.Watch(func(site int) { crashes <- site })
	d.Start()
	defer d.Stop()

	select {
	case <-crashes:
	case <-time.After(2 * time.Second):
		t.Fatal("no crash detected")
	}
	d.Observe(2)
	if !d.Alive(2) {
		t.Fatal("site 2 should be reinstated after Observe")
	}
	// And it can be re-suspected after going silent again.
	select {
	case site := <-crashes:
		if site != 2 {
			t.Fatalf("re-detected %d", site)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("site not re-suspected")
	}
}

func TestHeartbeatStopIsIdempotent(t *testing.T) {
	d := NewHeartbeat(1, []int{1, 2}, time.Millisecond, 10*time.Millisecond, func(int) {})
	d.Start()
	d.Stop()
	d.Stop()
}
