// Transport microbenchmark (-mode transport): raw message throughput and
// latency between two real TCP endpoints on loopback, swept over body size.
// Each message carries its send timestamp in TxID, so the receiver measures
// end-to-end latency — enqueue, coalesced write, wire, decode, inbox — and
// validates the body byte-for-byte as a consistency check.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/metrics"
	"nbcommit/internal/transport"
)

type transportScenario struct {
	BodyBytes  int     `json:"body_bytes"`
	DurationS  float64 `json:"duration_s"`
	Delivered  int64   `json:"delivered"`
	Dropped    int64   `json:"dropped"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	// Writes and MeanBatch expose the coalescing itself: one write carries
	// a whole queue drain.
	Writes         int64   `json:"writes"`
	MeanBatch      float64 `json:"mean_batch"`
	ConsistencyErr int64   `json:"consistency_errors"`
}

type transportReport struct {
	Senders   int                 `json:"senders"`
	DurationS float64             `json:"duration_s"`
	Scenarios []transportScenario `json:"scenarios"`
}

// runTransport sweeps the body sizes and writes the report. It fails (for
// smoke use in CI) if any scenario delivers nothing or corrupts a body.
func runTransport(bodies []int, senders int, duration, warmup time.Duration, outPath string) error {
	rep := transportReport{Senders: senders, DurationS: duration.Seconds()}
	for _, n := range bodies {
		res, err := runTransportScenario(n, senders, duration, warmup)
		if err != nil {
			return fmt.Errorf("transport body=%d: %w", n, err)
		}
		if res.Delivered == 0 {
			return fmt.Errorf("transport body=%d: zero throughput", n)
		}
		if res.ConsistencyErr > 0 {
			return fmt.Errorf("transport body=%d: %d corrupted bodies", n, res.ConsistencyErr)
		}
		rep.Scenarios = append(rep.Scenarios, *res)
		fmt.Printf("%3dB %9.0f msgs/s  p50 %6.3fms  p99 %6.3fms  mean batch %5.1f  drops %d\n",
			res.BodyBytes, res.MsgsPerSec, res.P50Ms, res.P99Ms, res.MeanBatch, res.Dropped)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

func runTransportScenario(bodyLen, senders int, duration, warmup time.Duration) (*transportScenario, error) {
	recv, err := transport.ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer recv.Close()
	snd, err := transport.ListenTCP(1, "127.0.0.1:0", map[int]string{2: recv.Addr()})
	if err != nil {
		return nil, err
	}
	defer snd.Close()

	body := make([]byte, bodyLen)
	for i := range body {
		body[i] = byte(i*7 + 11)
	}

	var (
		lat       metrics.Histogram
		delivered atomic.Int64
		badBody   atomic.Int64
		measuring atomic.Bool
		stop      atomic.Bool
	)
	go func() {
		for m := range recv.Recv() {
			if m.Kind != "BENCH" || !measuring.Load() {
				continue
			}
			ok := len(m.Body) == bodyLen
			for i := 0; ok && i < len(m.Body); i++ {
				ok = m.Body[i] == byte(i*7+11)
			}
			if !ok {
				badBody.Add(1)
				continue
			}
			if ns, err := strconv.ParseInt(m.TxID, 10, 64); err == nil {
				lat.Observe(time.Since(time.Unix(0, ns)))
			}
			delivered.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Light backpressure: the queue absorbs bursts (that is what
				// the coalescer drains), but driving it to the brim turns the
				// benchmark into a drop counter. Back off at half full.
				if snd.QueueDepth(2) > transport.DefaultQueueSize/2 {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				m := transport.Message{
					To: 2, Kind: "BENCH",
					TxID: strconv.FormatInt(time.Now().UnixNano(), 10),
					Body: body,
				}
				if err := snd.Send(m); err != nil {
					return
				}
			}
		}()
	}

	time.Sleep(warmup)
	measuring.Store(true)
	start := time.Now()
	time.Sleep(duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	writes, msgs := snd.BatchStats()
	res := &transportScenario{
		BodyBytes:      bodyLen,
		DurationS:      elapsed.Seconds(),
		Delivered:      delivered.Load(),
		Dropped:        snd.Dropped() + recv.Dropped(),
		MsgsPerSec:     float64(delivered.Load()) / elapsed.Seconds(),
		P50Ms:          ms2(lat.Quantile(0.50)),
		P99Ms:          ms2(lat.Quantile(0.99)),
		Writes:         writes,
		ConsistencyErr: badBody.Load(),
	}
	if writes > 0 {
		res.MeanBatch = float64(msgs) / float64(writes)
	}
	return res, nil
}
