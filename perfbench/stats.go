package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minTail is the percentile rule: a quantile is reported only when at
// least this many samples lie strictly beyond it, so a p99 needs 1000
// samples and a p50 needs 20.
const minTail = 10

// quantileUs returns the nearest-rank q-quantile of latencies given in
// nanoseconds, in microseconds. It refuses a quantile with fewer than
// minTail samples beyond it.
func quantileUs(ns []int64, q float64) (float64, error) {
	n := len(ns)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need %d)", q*100, n, beyond, minTail)
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank-1]) / 1e3, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errorRatio is failed over attempted operations: a failed or refused
// operation counts against the attempts, never silently dropped.
func errorRatio(attempted, failed int64) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// measure is one reported value with its unit.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]measure

func (m metricSet) put(name, unit string, v float64) { m[name] = measure{Value: v, Unit: unit} }

// check rejects malformed names and non-finite values.
func (m metricSet) check() error {
	for name, v := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// Operation kinds a phase records.
const (
	opAccess = iota // a procedure access
	opUpdate        // an update or replace statement
	opOther         // counted for throughput only (ad-hoc retrieves)
)

// sample is one completed operation: its kind and its wall time.
type sample struct {
	kind int
	dur  time.Duration
}

// latencies collects one phase's completed operations. Each client
// appends to its own slot; read them after the phase.
type latencies struct {
	per     [][]sample
	nAccess atomic.Int64
	nUpdate atomic.Int64
}

func newLatencies(clients int) *latencies {
	return &latencies{per: make([][]sample, clients)}
}

// add records an operation that took d.
func (l *latencies) add(client, kind int, d time.Duration) {
	l.per[client] = append(l.per[client], sample{kind: kind, dur: d})
	switch kind {
	case opAccess:
		l.nAccess.Add(1)
	case opUpdate:
		l.nUpdate.Add(1)
	}
}

// enough reports whether both kinds have the samples a p99 needs.
func (l *latencies) enough() bool {
	const need = 100 * minTail
	return l.nAccess.Load() >= need && l.nUpdate.Load() >= need
}

// release drops the samples, once the percentiles are taken.
func (l *latencies) release() { l.per = nil }

// durations returns the wall times of one kind in nanoseconds, and the
// count of all completed operations.
func (l *latencies) durations(kind int) (ns []int64, completed int) {
	for _, per := range l.per {
		completed += len(per)
		for _, s := range per {
			if s.kind == kind {
				ns = append(ns, int64(s.dur))
			}
		}
	}
	return ns, completed
}

// closedLoop runs one goroutine per client, each calling step back to
// back (no think time) until the phase ends: dur has passed and enough
// reports true, or maxDur has passed, or step reports that the client's
// stream is exhausted. It returns once every client has stopped, with
// the phase's wall time and the CPU time the process used meanwhile.
func closedLoop(clients int, dur, maxDur time.Duration, enough func() bool, step func(client int) bool) (wall, cpu time.Duration) {
	cpu0 := processCPU()
	start := time.Now()
	soft, hard := start.Add(dur), start.Add(maxDur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hard) || (now.After(soft) && enough()) {
					return
				}
				if !step(c) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), processCPU() - cpu0
}

// processCPU is the user plus system CPU time of the whole process so
// far: every client, the program's own goroutines and the runtime's.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF is always valid
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// putLatency adds the p50 and p99 of one kind's samples under prefix.
func putLatency(m metricSet, prefix string, ns []int64) error {
	for _, p := range []struct {
		name string
		q    float64
	}{{"_p50_us", 0.50}, {"_p99_us", 0.99}} {
		v, err := quantileUs(ns, p.q)
		if err != nil {
			return fmt.Errorf("%s%s: %w", prefix, p.name, err)
		}
		m.put(prefix+p.name, "us", v)
	}
	return nil
}
