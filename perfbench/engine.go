package main

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"time"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/engine"
	"dbproc/internal/metric"
	"dbproc/internal/sim"
	"dbproc/internal/workload"
)

// engineSpec is one in-process engine workload: the paper's default
// parameters with the model, strategy and update probability P changed.
type engineSpec struct {
	name     string
	model    costmodel.Model
	strategy costmodel.Strategy
	updateP  float64
	// gateOps is the length of the correctness-gate run, whose history
	// goes through the snapshot-isolation oracle (quadratic in length).
	gateOps int
	// setupReps is how often a run builds the engine; setup_s is the
	// median. Cheap builds repeat more, to steady the median.
	setupReps int
}

var (
	engineAccess = engineSpec{
		name: "engine-access", model: costmodel.Model1, strategy: costmodel.CacheInvalidate,
		updateP: 0.05, gateOps: 1000, setupReps: 9,
	}
	engineUpdate = engineSpec{
		name: "engine-update", model: costmodel.Model2, strategy: costmodel.UpdateCacheRVM,
		updateP: 0.5, gateOps: 500, setupReps: 9,
	}
)

// dataSeed fixes the database: every run builds the same base relations
// and procedures, and --seed draws the operation stream run against it.
const dataSeed = 1

// config returns the simulation config: the paper's defaults, with the
// spec's model and strategy.
func (s engineSpec) config() sim.Config {
	return sim.Config{Params: costmodel.Default(), Model: s.model, Strategy: s.strategy, Seed: dataSeed}
}

// opGen draws one session's operations as the load generator: an
// update with probability P, else an access with locality Z, a fraction
// 1-Z of accesses going to the hot procedures.
type opGen struct {
	rng       *rand.Rand
	p, z      float64
	hot, cold []int
	index     int // the op's workload-order token, unique across sessions
}

// opGens returns one generator per session, each drawing from its own
// stream of seed. The hot set, the ⌈Z·n⌉ procedures shared by all
// sessions, is part of the fixed database: which procedures are hot
// moved throughput by 20% between seeds on engine-update.
func (s engineSpec) opGens(seed int64, procIDs []int) []*opGen {
	z := costmodel.Default().Z
	ids := append([]int(nil), procIDs...)
	rand.New(rand.NewSource(dataSeed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nHot := int(math.Ceil(z * float64(len(ids))))
	gens := make([]*opGen, clients)
	for c := range gens {
		gens[c] = &opGen{
			rng: rand.New(rand.NewSource(seed*1000003 + int64(c) + 1)),
			p:   s.updateP, z: z, hot: ids[:nHot], cold: ids[nHot:], index: c,
		}
	}
	return gens
}

func (g *opGen) next() workload.Op {
	op := workload.Op{Kind: workload.Query, Index: g.index}
	g.index += clients
	switch {
	case g.rng.Float64() < g.p:
		op.Kind = workload.Update
	case g.rng.Float64() < 1-g.z:
		op.ProcID = g.hot[g.rng.Intn(len(g.hot))]
	default:
		op.ProcID = g.cold[g.rng.Intn(len(g.cold))]
	}
	return op
}

// engineRun is one engine with its sessions and their op generators.
type engineRun struct {
	e    *engine.Engine
	sess []*engine.Session
	gens []*opGen
	// limit caps the ops each session is dealt; 0 deals without end.
	limit int
	seqs  []seqSet
}

// seqSet is the set of commit sequence numbers one session's ops got,
// one bit each, so the commit-order check keeps no per-op record in the
// heap live_heap_mb measures.
type seqSet struct {
	bits []uint64
	n    int // sequence numbers added
	bad  int // negative or repeated ones
}

func (s *seqSet) add(seq int) {
	s.n++
	if seq < 0 {
		s.bad++
		return
	}
	w, b := seq/64, uint64(1)<<(seq%64)
	for len(s.bits) <= w {
		s.bits = append(s.bits, 0)
	}
	if s.bits[w]&b != 0 {
		s.bad++
		return
	}
	s.bits[w] |= b
}

// permutation reports whether the sets together hold each of 0..n-1
// exactly once, n being the count of sequence numbers added to them.
func permutation(sets []seqSet) (n int, ok bool) {
	var words, bad int
	for _, s := range sets {
		n += s.n
		bad += s.bad
		words = max(words, len(s.bits))
	}
	set := 0
	for w := 0; w < words; w++ {
		var union uint64
		for _, s := range sets {
			if w < len(s.bits) {
				if union&s.bits[w] != 0 {
					return n, false // one number in two sessions
				}
				union |= s.bits[w]
			}
		}
		if union != 0 && 64*w+63-bits.LeadingZeros64(union) >= n {
			return n, false // a number out of range
		}
		set += bits.OnesCount64(union)
	}
	return n, bad == 0 && set == n
}

// startEngine builds the engine (the timed set-up: world build plus
// MVCC enable) and opens the sessions, each with an op generator drawn
// from seed.
func startEngine(spec engineSpec, cfg sim.Config, opt engine.Options, seed int64) (*engineRun, time.Duration) {
	runtime.GC()
	t0 := time.Now()
	e := engine.New(cfg, opt)
	setup := time.Since(t0)
	r := &engineRun{e: e, gens: spec.opGens(seed, e.World().ProcIDs()), seqs: make([]seqSet, clients)}
	for c := 0; c < clients; c++ {
		r.sess = append(r.sess, e.OpenSession(c))
	}
	return r, setup
}

// critSums accumulates the engine's per-op critical-path segments.
type critSums struct{ wall, wait, io, recompute, compute int64 }

func (c *critSums) add(o critSums) {
	c.wall += o.wall
	c.wait += o.wait
	c.io += o.io
	c.recompute += o.recompute
	c.compute += o.compute
}

// enginePhase is what the clients observed during one phase.
type enginePhase struct {
	lat      *latencies
	wall     time.Duration
	cpu      time.Duration
	simMs    []float64
	tuples   []int64
	crit     []critSums
	counters metric.Counters
	waits    engine.WaitProfile
}

func (p *enginePhase) ops() int64 { return p.lat.nAccess.Load() + p.lat.nUpdate.Load() }

// phase drives the sessions closed-loop (see closedLoop), timing each
// Session.Exec from outside.
func (r *engineRun) phase(dur, maxDur time.Duration, traced bool) *enginePhase {
	ph := &enginePhase{
		lat: newLatencies(clients), simMs: make([]float64, clients), tuples: make([]int64, clients),
		crit: make([]critSums, clients),
	}
	before := make([]metric.Counters, clients)
	for c, s := range r.sess {
		before[c] = s.Stats().Counters
	}
	w0 := r.e.WaitProfile()
	enough := ph.lat.enough
	if dur == 0 {
		enough = func() bool { return false }
	}
	ph.wall, ph.cpu = closedLoop(clients, dur, maxDur, enough, func(c int) bool {
		if r.limit > 0 && r.seqs[c].n >= r.limit {
			return false
		}
		op := r.gens[c].next()
		t0 := time.Now()
		out := r.sess[c].Exec(op)
		d := time.Since(t0)
		kind := opAccess
		if op.Kind == workload.Update {
			kind = opUpdate
		}
		ph.lat.add(c, kind, d)
		ph.simMs[c] += out.CostMs
		ph.tuples[c] += int64(out.Tuples)
		r.seqs[c].add(out.Seq)
		if traced {
			ph.crit[c].add(critSums{out.WallNs, out.WaitNs, out.IONs, out.RecomputeNs, out.ComputeNs})
		}
		return true
	})
	for c, s := range r.sess {
		ph.counters = ph.counters.Add(s.Stats().Counters.Sub(before[c]))
	}
	w1 := r.e.WaitProfile()
	ph.waits = engine.WaitProfile{
		AccessWaitNs: w1.AccessWaitNs - w0.AccessWaitNs, AccessWallNs: w1.AccessWallNs - w0.AccessWallNs,
		UpdateWaitNs: w1.UpdateWaitNs - w0.UpdateWaitNs, UpdateWallNs: w1.UpdateWallNs - w0.UpdateWallNs,
	}
	return ph
}

// finish seals the sessions and gates the run: every op a session
// executed committed exactly once (the commit sequence is a permutation
// of 0..n-1), and every procedure's answer through its strategy equals
// the recompute oracle on the final state, as multisets.
func (r *engineRun) finish(g *gate, name string) engine.Result {
	for _, s := range r.sess {
		s.Close()
	}
	res := r.e.Finish(0)
	executed, ok := permutation(r.seqs)
	if res.Ops != executed {
		g.failf("%s: %d ops executed but %d committed", name, executed, res.Ops)
	}
	if !ok {
		g.failf("%s: the commit sequence numbers are not a permutation of 0..%d", name, executed-1)
	}
	w := r.e.World()
	for _, id := range w.ProcIDs() {
		if !sameTuples(w.Access(id), w.RecomputeOracle(id)) {
			g.failf("%s: procedure %d answer differs from the recompute oracle", name, id)
		}
	}
	return res
}

// engineGate runs the gate engine: a short fixed stream, every dealt op
// run to completion with history recording on, checked by finish and by
// the snapshot-isolation oracle. It returns the history (replayed by
// the traced run) and the engine's set-up time.
func engineGate(spec engineSpec, seed int64, g *gate) ([]engine.HistoryEntry, time.Duration) {
	r, setup := startEngine(spec, spec.config(), engine.Options{Clients: clients, RecordHistory: true}, seed)
	r.limit = spec.gateOps / clients
	dealt := r.limit * clients
	r.phase(0, time.Hour, false)
	res := r.finish(g, spec.name+" gate")
	if res.Ops != dealt {
		g.failf("%s gate: %d ops dealt but %d committed", spec.name, dealt, res.Ops)
	}
	w := r.e.World()
	if rep := engine.CheckSnapshotIsolation(engine.TxnsFromHistory(res.History, w.ProcIDs(), w.ProcRelations)); !rep.Serializable {
		g.failf("%s gate: snapshot-isolation oracle: %s", spec.name, rep.Window)
	}
	return res.History, setup
}

func runEngine(spec engineSpec, rc runConfig) (*report, error) {
	g := &gate{}
	rep := newReport()

	// The first engine built is the gate's, the last is measured, the
	// ones between are only timed.
	hist, d := engineGate(spec, rc.seed, g)
	setups := []float64{d.Seconds()}
	cfg := spec.config()
	for i := 2; i < spec.setupReps; i++ {
		_, d := startEngine(spec, cfg, engine.Options{Clients: clients}, rc.seed)
		setups = append(setups, d.Seconds())
	}
	r, d := startEngine(spec, cfg, engine.Options{Clients: clients}, rc.seed)
	setups = append(setups, d.Seconds())

	r.phase(rc.warmup(), rc.warmup(), false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := r.phase(rc.phase(), rc.maxPhase(), false)
	runtime.ReadMemStats(&m1)

	rep.attempted = ph.ops()
	rep.prov["ops_timed"] = ph.ops()
	rep.prov["access_samples"] = ph.lat.nAccess.Load()
	rep.prov["update_samples"] = ph.lat.nUpdate.Load()
	rep.prov["gate_ops"] = spec.gateOps
	rep.prov["setup_samples_s"] = setups
	opsPerSec, err := rep.endToEnd(ph.lat, ph.wall, ph.cpu, median(setups), sum(ph.simMs)/float64(ph.lat.nAccess.Load()))
	if err != nil {
		return nil, err
	}
	rep.processMetrics(&m0, &m1, ph.ops(), ph.wall)
	ph.lat.release()
	rep.liveHeap()
	r.finish(g, spec.name)
	if !rc.traced {
		return rep.done(g), nil
	}

	// Traced run: a fresh engine with the critical-path split and the
	// cache ledger on, driven the same way.
	cfg.Ledger = cache.NewLedger()
	tr, _ := startEngine(spec, cfg, engine.Options{Clients: clients, CritPath: true}, rc.seed)
	tr.phase(rc.warmup(), rc.warmup(), true)
	ev0 := len(cfg.Ledger.Events())
	tph := tr.phase(rc.phase(), rc.maxPhase(), true)
	events := cfg.Ledger.Events()[ev0:]
	tr.finish(g, spec.name+" traced")

	m := rep.metrics
	ops := float64(tph.ops())
	upd := float64(tph.lat.nUpdate.Load())
	var cs critSums
	for _, c := range tph.crit {
		cs.add(c)
	}
	m.put("engine.lock_wait_share", "ratio", ratio(float64(cs.wait), float64(cs.wall)))
	m.put("engine.access_wait_share", "ratio", tph.waits.AccessWaitShare())
	m.put("engine.critpath.lock_wait_us_per_op", "us", float64(cs.wait)/1e3/ops)
	m.put("engine.critpath.io_us_per_op", "us", float64(cs.io)/1e3/ops)
	m.put("engine.critpath.recompute_us_per_op", "us", float64(cs.recompute)/1e3/ops)
	m.put("engine.critpath.compute_us_per_op", "us", float64(cs.compute)/1e3/ops)
	m.put("storage.page_reads_per_op", "count", float64(tph.counters.PageReads)/ops)
	m.put("storage.page_writes_per_op", "count", float64(tph.counters.PageWrites)/ops)
	var hits, computed float64
	for _, ev := range events {
		switch ev.Kind {
		case cache.KindHit:
			hits++
		case cache.KindComputed:
			computed++
		}
	}
	m.put("cache.hit_ratio", "ratio", ratio(hits, hits+computed))
	m.put("cache.invalidations_per_update", "count", ratio(float64(tph.counters.Invalidations), upd))
	m.put("query.screens_per_tuple", "count", ratio(float64(tph.counters.Screens), float64(sumInt(tph.tuples))))
	rp := replayLayers(spec, hist)
	m.put("query.recompute_us", "us", rp.recomputeUs)
	m.put("rete.maintain_us_per_update", "us", rp.maintainUs)
	m.put("rete.screens_per_update", "count", rp.maintainScreens)
	// No QUEL text, wire, client or statement gate on this path.
	m.put("quel.parse_us", "us", 0)
	m.put("wire.codec_us_per_frame", "us", 0)
	m.put("wire.bytes_per_request", "bytes", 0)
	m.put("client.network_share", "ratio", 0)
	m.put("server.gate_wait_share", "ratio", 0)
	m.put("server.compute_us_per_stmt", "us", 0)
	m.put("trace.overhead_ratio", "ratio", (float64(tph.ops())/tph.wall.Seconds())/opsPerSec)
	rep.prov["traced_ops"] = tph.ops()
	return rep.done(g), nil
}

// replayed is what replayLayers measured.
type replayed struct {
	recomputeUs     float64 // RecomputeOracle time per accessed procedure
	maintainUs      float64 // maintenance time per update
	maintainScreens float64 // maintenance screens per update (a count)
}

// replayLayers replays the gate run's history in commit order on two
// fresh worlds built from the same data: one with the workload's
// strategy, one with Always Recompute, which maintains nothing. The
// mean difference of their update times and screen counts is the
// strategy's maintenance per update; the mean time of RecomputeOracle
// over the accessed procedures is the query executor's from-scratch
// cost.
func replayLayers(spec engineSpec, hist []engine.HistoryEntry) replayed {
	cfg := spec.config()
	plain := cfg
	plain.Strategy = costmodel.AlwaysRecompute
	ws, wp := sim.Build(cfg), sim.Build(plain)
	var stratNs, plainNs, recNs, nUpd, nQ int64
	var stratScreens, plainScreens int64
	deadline := time.Now().Add(replayBudget)
	for _, he := range hist {
		if time.Now().After(deadline) {
			break
		}
		if he.Op.Kind == workload.Update {
			s0, p0 := ws.Meter().Snapshot(), wp.Meter().Snapshot()
			t0 := time.Now()
			ws.ReplayUpdate(he.Update)
			t1 := time.Now()
			wp.ReplayUpdate(he.Update)
			stratNs += int64(t1.Sub(t0))
			plainNs += int64(time.Since(t1))
			stratScreens += ws.Meter().Snapshot().Sub(s0).Screens
			plainScreens += wp.Meter().Snapshot().Sub(p0).Screens
			nUpd++
			continue
		}
		t0 := time.Now()
		wp.RecomputeOracle(he.Op.ProcID)
		recNs += int64(time.Since(t0))
		nQ++
	}
	return replayed{
		recomputeUs:     ratio(float64(recNs)/1e3, float64(nQ)),
		maintainUs:      ratio(float64(stratNs-plainNs)/1e3, float64(nUpd)),
		maintainScreens: ratio(float64(stratScreens-plainScreens), float64(nUpd)),
	}
}

const replayBudget = 2 * time.Second

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumInt(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
