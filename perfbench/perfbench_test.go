package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileRefusesThinTail(t *testing.T) {
	ns := make([]int64, 999)
	for i := range ns {
		ns[i] = int64(i+1) * 1000
	}
	if _, err := quantileUs(ns, 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	ns = append(ns, 1000*1000)
	v, err := quantileUs(ns, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 = %v us, want 990", v)
	}
	if _, err := quantileUs(ns[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

func TestGateTripsOnCorruptedRows(t *testing.T) {
	want := [][]int64{{1, 10}, {2, 20}, {3, 30}}
	if !sameRows([][]int64{{3, 30}, {1, 10}, {2, 20}}, want) {
		t.Fatal("a permutation is the same multiset")
	}
	for _, bad := range [][][]int64{
		{{1, 10}, {2, 21}, {3, 30}},
		{{1, 10}, {2, 20}},
		{{1, 10}, {2, 20}, {2, 20}},
		{{1, 10}, {2, 20}, {3}},
	} {
		if sameRows(bad, want) {
			t.Errorf("corrupted row set %v accepted", bad)
		}
	}
	tuples := [][]byte{[]byte("ab"), []byte("cd")}
	if !sameTuples([][]byte{[]byte("cd"), []byte("ab")}, tuples) {
		t.Fatal("a permutation is the same multiset")
	}
	if sameTuples([][]byte{[]byte("ab"), []byte("ce")}, tuples) {
		t.Fatal("corrupted tuple set accepted")
	}

	g := &gate{}
	if !sameRows(want, want) {
		g.failf("unreachable")
	}
	if !sameRows([][]int64{{9, 9}}, want) {
		g.failf("procedure p0 differs")
	}
	rep := newReport().done(g)
	rep.metrics = fullMetrics()
	rec, err := rep.result(false)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct {
		t.Fatal("a gate mismatch must make the record incorrect")
	}
}

func TestMetricNames(t *testing.T) {
	for _, n := range append(append([]string(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
	}
	bad := metricSet{}
	bad.put("access p50", "us", 1)
	if bad.check() == nil {
		t.Fatal("a name with a space must be refused")
	}

	// The names the code prints are the ones BENCHMARK.json declares.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name)
		}
		return strings.Join(s, ",")
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("BENCHMARK.json end_to_end = %s, code prints %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("BENCHMARK.json per_layer = %s, code prints %s", got, want)
	}
}

func TestErrorRatioCountsFailures(t *testing.T) {
	if r := errorRatio(200, 5); r != 0.025 {
		t.Fatalf("errorRatio(200, 5) = %v", r)
	}
	if r := errorRatio(0, 0); r != 1 {
		t.Fatalf("no attempts must not read as success, got %v", r)
	}
	rep := newReport()
	rep.attempted, rep.failed = 200, 5
	lat := newLatencies(1)
	for i := 0; i < 1000; i++ {
		lat.add(0, opAccess, time.Microsecond)
		lat.add(0, opUpdate, 2*time.Microsecond)
	}
	if _, err := rep.endToEnd(lat, time.Second, time.Second, 1, 1); err != nil {
		t.Fatal(err)
	}
	if v := rep.metrics["success_ratio"].Value; v != 0.975 {
		t.Fatalf("success_ratio = %v, want 0.975", v)
	}
	if v := rep.metrics["cpu_us_per_op"].Value; v != 500 {
		t.Fatalf("cpu_us_per_op = %v, want 500 (1 s of CPU over 2000 ops)", v)
	}
}

// TestEngineGatePasses runs the engine-access gate on the real program.
func TestEngineGatePasses(t *testing.T) {
	g := &gate{}
	hist, _ := engineGate(engineAccess, 7, g)
	if !g.ok() {
		t.Fatalf("gate failed: %v", g.problems)
	}
	if len(hist) != engineAccess.gateOps {
		t.Fatalf("history has %d entries, want %d", len(hist), engineAccess.gateOps)
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload must fail")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result: %q", out.String())
	}
}

// fullMetrics is a metric set holding every declared name.
func fullMetrics() metricSet {
	m := metricSet{}
	for _, n := range append(append([]string(nil), endToEnd...), perLayer...) {
		m.put(n, "count", 1)
	}
	return m
}

func TestCommitSequenceCheck(t *testing.T) {
	sets := func(per ...[]int) []seqSet {
		out := make([]seqSet, len(per))
		for c, seqs := range per {
			for _, s := range seqs {
				out[c].add(s)
			}
		}
		return out
	}
	if n, ok := permutation(sets([]int{0, 2, 3, 64, 65}, []int{1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
		21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
		49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63})); !ok || n != 66 {
		t.Fatalf("a permutation of 0..65 refused (n = %d)", n)
	}
	for name, bad := range map[string][]seqSet{
		"repeated in one session":   sets([]int{0, 1, 1}, []int{2}),
		"repeated across sessions":  sets([]int{0, 1}, []int{1, 2}),
		"gap":                       sets([]int{0, 1}, []int{3}),
		"out of range":              sets([]int{0, 1}, []int{70}),
		"negative":                  sets([]int{0, -1}, []int{1}),
		"missing the last of 64..n": sets([]int{0}, []int{65}),
	} {
		if _, ok := permutation(bad); ok {
			t.Errorf("%s: accepted", name)
		}
	}
}
