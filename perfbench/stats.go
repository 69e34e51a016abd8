package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: a p99 needs 1000 samples, a p90 100.
const minTailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the nearest
// rank rule. It refuses a quantile with fewer than minTailSamples
// samples beyond it, which would be one or two outliers read as a tail.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	if beyond := float64(n) * (1 - q); beyond < minTailSamples-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.1f of %d", 100*q, minTailSamples, beyond, n)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(rank, 0)], nil
}

// tailNote describes sorted latencies by their count, median and the
// highest of p99 and p90 that has minTailSamples samples beyond it.
func tailNote(sorted []float64) string {
	note := fmt.Sprintf("%d samples, p50 %.4g ms", len(sorted), median(sorted))
	for _, q := range []float64{0.99, 0.90} {
		if v, err := percentile(sorted, q); err == nil {
			return note + fmt.Sprintf(", p%g %.4g ms", 100*q, v)
		}
	}
	return note + ", too few samples for a tail percentile"
}

// median returns the middle value of v (the mean of the two middle ones
// for even lengths). v is sorted in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes returns the process's resident set size from /proc/self/statm.
func rssBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * uint64(os.Getpagesize()), nil
}

// rssSampler records the highest RSS seen between start and stop.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
	err   error
}

const rssSampleEvery = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			v, err := rssBytes()
			if err != nil {
				s.err = err
				return
			}
			s.peak = max(s.peak, v)
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MiB.
func (s *rssSampler) stop() (float64, error) {
	close(s.stopc)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	return float64(s.peak) / (1 << 20), nil
}

// promSum sums the values of every sample named name whose label set
// contains labelMatch (an exact `key="value"` pair, or "" for any).
// It reads only what the benchmark needs from a Prometheus text
// exposition: comment lines are skipped and label values are matched
// verbatim.
func promSum(text, name, labelMatch string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		labels := ""
		switch {
		case strings.HasPrefix(rest, "{"):
			end := strings.LastIndexByte(rest, '}')
			if end < 0 {
				continue
			}
			labels, rest = rest[1:end], rest[end+1:]
		case strings.HasPrefix(rest, " "):
		default:
			continue // a longer family name sharing the prefix
		}
		if labelMatch != "" && !containsLabel(labels, labelMatch) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		sum += v
	}
	return sum
}

// containsLabel reports whether the comma-separated label list holds
// the exact pair.
func containsLabel(labels, pair string) bool {
	for labels != "" {
		if strings.HasPrefix(labels, pair) && (len(labels) == len(pair) || labels[len(pair)] == ',') {
			return true
		}
		// Skip to the next pair: past the closing quote of this value.
		q := strings.IndexByte(labels, '"')
		if q < 0 {
			return false
		}
		i := q + 1
		for i < len(labels) && labels[i] != '"' {
			if labels[i] == '\\' {
				i++
			}
			i++
		}
		if i+1 >= len(labels) {
			return false
		}
		labels = labels[i+2:] // past `",`
	}
	return false
}
