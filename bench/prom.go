package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one node's /metrics page: series name plus its rendered label
// block (labels sorted by name, so lookups do not depend on the order the
// exporter wrote them) to value.
type scrape map[string]float64

// seriesKey renders name and label pairs ("k", "v", ...) the way parseProm
// stores them.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+labels[i+1]+`"`)
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm reads the Prometheus text exposition format (0.0.4) as
// internal/metrics writes it: comment lines, then `name{labels} value`.
// Label values in this repo never contain commas, quotes or braces, so the
// label block is split on commas.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %v", line, err)
		}
		key := line[:sp]
		if open := strings.IndexByte(key, '{'); open >= 0 {
			if key[len(key)-1] != '}' {
				return nil, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			pairs := strings.Split(key[open+1:len(key)-1], ",")
			sort.Strings(pairs)
			key = key[:open] + "{" + strings.Join(pairs, ",") + "}"
		}
		out[key] = v
	}
	return out, sc.Err()
}

// fetchProm scrapes one node's /metrics.
func fetchProm(addr string) (scrape, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return parseProm(resp.Body)
}

// window is the pair of scrapes taken from every node around the measured
// window: before[i] after warm-up, after[i] when the window closes.
type window struct {
	before, after []scrape
}

// delta sums, over all nodes, how much a counter (or a summary's _sum or
// _count) grew across the window.
func (w window) delta(name string, labels ...string) float64 {
	k := seriesKey(name, labels...)
	var d float64
	for i := range w.after {
		d += w.after[i][k] - w.before[i][k]
	}
	return d
}

// gauge sums a gauge over all nodes as the window closed.
func (w window) gauge(name string, labels ...string) float64 {
	k := seriesKey(name, labels...)
	var v float64
	for i := range w.after {
		v += w.after[i][k]
	}
	return v
}

// mean is a summary's mean over the window: the growth of _sum over the
// growth of _count, all nodes together. Summaries whose name ends in _seconds
// are exported in seconds (internal/metrics scales them from nanoseconds), so
// their mean is in seconds too.
func (w window) mean(name string, labels ...string) float64 {
	return ratio(w.delta(name+"_sum", labels...), w.delta(name+"_count", labels...))
}

// quantile reports a summary's exported quantile. The exporter's quantiles
// cover the node's whole life (preload and warm-up included, a few percent of
// the samples), not the window, so they cannot be differenced; this takes
// each node's value as the window closed and weighs it by the number of
// samples the node added during the window. Nodes that added none (a node
// that coordinated nothing) do not count, and with no samples anywhere the
// result is 0.
func (w window) quantile(q string, name string, labels ...string) float64 {
	qk := seriesKey(name, append([]string{"quantile", q}, labels...)...)
	ck := seriesKey(name+"_count", labels...)
	var sum, n float64
	for i := range w.after {
		d := w.after[i][ck] - w.before[i][ck]
		sum += d * w.after[i][qk]
		n += d
	}
	return ratio(sum, n)
}
