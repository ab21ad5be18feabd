// Command perfbench is dbproc's repository benchmark. It runs one
// workload (or all three) closed-loop with two clients for a fixed
// time, checks the program's outputs with a correctness gate outside
// the timed phase, and prints every metric by name with its unit. The
// last line of standard output is the JSON result record.
//
//	perfbench --workload engine-access --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 additionally drives
// a traced phase and prints the per-layer metrics. README.md lists the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// clients is the closed-loop client count: one per core of the box the
// benchmark was defined on.
const clients = 2

// endToEnd and perLayer are the metric names BENCHMARK.json declares,
// printed by --trace 0 and --trace 1 respectively.
var (
	endToEnd = []string{
		"access_p50_us", "update_p50_us", "cpu_us_per_op", "setup_s", "sim_ms_per_access", "live_heap_mb", "success_ratio",
	}
	// The p99s and the wall-clock throughput are kept for diagnosis only:
	// on the shared 2-core box they spread by up to 30% or more between
	// seeds (README.md), wider than any bound.
	perLayer = []string{
		"access_p99_us", "update_p99_us", "ops_per_s",
		"engine.lock_wait_share", "engine.access_wait_share",
		"engine.critpath.lock_wait_us_per_op", "engine.critpath.io_us_per_op",
		"engine.critpath.recompute_us_per_op", "engine.critpath.compute_us_per_op",
		"storage.page_reads_per_op", "storage.page_writes_per_op",
		"cache.hit_ratio", "cache.invalidations_per_update",
		"rete.screens_per_update", "rete.maintain_us_per_update",
		"query.recompute_us", "query.screens_per_tuple", "quel.parse_us",
		"wire.codec_us_per_frame", "wire.bytes_per_request",
		"client.network_share", "server.gate_wait_share", "server.compute_us_per_stmt",
		"process.alloc_bytes_per_op", "process.allocs_per_op", "process.gc_pause_share",
		"trace.overhead_ratio",
	}
)

var workloads = map[string]func(runConfig) (*report, error){
	engineAccess.name: func(rc runConfig) (*report, error) { return runEngine(engineAccess, rc) },
	engineUpdate.name: func(rc runConfig) (*report, error) { return runEngine(engineUpdate, rc) },
	"sql-served":      runSQL,
}

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// phase is the length of a timed phase.
func (rc runConfig) phase() time.Duration { return time.Duration(rc.seconds * float64(time.Second)) }

// maxPhase caps a phase that runs on to collect the samples a p99 needs.
func (rc runConfig) maxPhase() time.Duration { return 3 * rc.phase() }

// warmup is the untimed phase before each timed one, which lets caches
// fill and the heap settle.
func (rc runConfig) warmup() time.Duration {
	if w := rc.phase() / 5; w > time.Second {
		return w
	}
	return time.Second
}

// report is one workload's outcome.
type report struct {
	attempted, failed int64
	metrics           metricSet
	prov              map[string]any
	problems          []string
}

func newReport() *report {
	return &report{metrics: metricSet{}, prov: map[string]any{}}
}

// endToEnd fills the end-to-end metrics of a timed phase that lasted
// wall and used cpu of the process's CPU time, but for live_heap_mb (see
// liveHeap), and the p99s and throughput kept for diagnosis, and returns
// the phase's throughput; attempted and failed must be set first.
func (r *report) endToEnd(lat *latencies, wall, cpu time.Duration, setupS, simMsPerAccess float64) (float64, error) {
	m := r.metrics
	acc, completed := lat.durations(opAccess)
	upd, _ := lat.durations(opUpdate)
	opsPerSec := float64(completed) / wall.Seconds()
	if err := putLatency(m, "access", acc); err != nil {
		return 0, err
	}
	if err := putLatency(m, "update", upd); err != nil {
		return 0, err
	}
	m.put("ops_per_s", "1/s", opsPerSec)
	m.put("cpu_us_per_op", "us", float64(cpu.Nanoseconds())/1e3/float64(completed))
	m.put("setup_s", "s", setupS)
	m.put("sim_ms_per_access", "ms", simMsPerAccess)
	m.put("success_ratio", "ratio", 1-errorRatio(r.attempted, r.failed))
	return opsPerSec, nil
}

// liveHeap fills live_heap_mb: the heap in use after a forced
// collection. Call it at the end of the timed phase, once the phase's
// latency samples are released, so that the heap holds the program's
// state and not the benchmark's per-operation records.
func (r *report) liveHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metrics.put("live_heap_mb", "MB", float64(ms.HeapAlloc)/1e6)
}

// processMetrics fills the runtime's allocation and GC figures over a
// timed phase.
func (r *report) processMetrics(m0, m1 *runtime.MemStats, ops int64, wall time.Duration) {
	m := r.metrics
	m.put("process.alloc_bytes_per_op", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops))
	m.put("process.allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	m.put("process.gc_pause_share", "ratio", float64(m1.PauseTotalNs-m0.PauseTotalNs)/float64(wall.Nanoseconds()))
}

func (r *report) done(g *gate) *report {
	r.problems = g.problems
	return r
}

// record is the result line.
type record struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// result selects the metrics a run prints and checks that every
// declared one is there.
func (r *report) result(traced bool) (record, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := record{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metricSet{}}
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = v
	}
	return out, out.Metrics.check()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "engine-access, engine-update, sql-served, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs a traced phase and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	all := record{Correct: true, Metrics: metricSet{}}
	for _, n := range names {
		fn, ok := workloads[n]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", n)
			return 2
		}
		rep, err := fn(rc)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		rec, err := rep.result(rc.traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		printReport(stdout, stderr, n, rc, rep, rec)
		all.Correct = all.Correct && rec.Correct
		all.Attempted += rec.Attempted
		all.Failed += rec.Failed
		prefix := ""
		if len(names) > 1 {
			prefix = n + "."
		}
		for k, v := range rec.Metrics {
			all.Metrics[prefix+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// printReport prints every metric the run measured, marking those not
// in the result record, then the gate's problems and the provenance line.
func printReport(stdout, stderr io.Writer, name string, rc runConfig, rep *report, rec record) {
	keys := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		note := ""
		if _, ok := rec.Metrics[k]; !ok {
			note = " (not in record)"
		}
		fmt.Fprintf(stdout, "%-14s %-38s %14.4f %s%s\n", name, k, rep.metrics[k].Value, rep.metrics[k].Unit, note)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: correctness gate: %s\n", p)
	}
	prov := map[string]any{
		"workload": name, "seed": rc.seed, "seconds": rc.seconds, "trace": rc.traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "clients": clients, "attempted": rec.Attempted, "failed": rec.Failed,
	}
	for k, v := range rep.prov {
		prov[k] = v
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov}) // maps of plain values always marshal
	fmt.Fprintln(stdout, string(line))
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
