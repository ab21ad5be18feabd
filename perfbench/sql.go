package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dbproc/client"
	"dbproc/internal/metric"
	"dbproc/internal/quel"
	"dbproc/internal/server"
	"dbproc/internal/wire"
)

// The sql-served data set: a clustered emp relation, a hashed dept
// relation, and procedures over age ranges of emp, half of them joined
// with dept.
const (
	empRows   = 20000
	ages      = 1000 // emp.age is the cluster key, 20 tuples per value
	depts     = 10
	floors    = 3
	nProcs    = 50
	procWidth = 5  // ages per procedure range
	hotProcs  = 10 // Z = 0.2: a fifth of the procedures gets 80% of the executes

	// sqlSetupReps is how often a run starts and loads a server;
	// setup_s is the median.
	sqlSetupReps = 7
)

// Statement kinds of the mix.
const (
	kExecute  = iota // a cached procedure access
	kRetrieve        // an ad-hoc join, recomputed every time
	kReplace         // an update on the cluster key, hitting procedure i-locks
)

type stmt struct {
	kind int
	text string
}

// sqlInput is the load generator's input for one run: the run's seed,
// which draws the statement streams, and from the fixed data set each
// procedure's definition as a plain retrieve and the age of every emp
// tuple, which replace statements name a tuple by.
type sqlInput struct {
	seed int64
	defs []string
	age  []int
}

func genSQL(seed int64) *sqlInput {
	_, defs, age := dataSet()
	return &sqlInput{seed: seed, defs: defs, age: age}
}

// dataSet generates the fixed data set from dataSeed: the statements
// that create, load and define it, each procedure's definition, and the
// age of every emp tuple. The load statements are generated afresh for
// each load, not kept, so they stay out of the heap live_heap_mb
// measures.
func dataSet() (load, defs []string, age []int) {
	rng := rand.New(rand.NewSource(dataSeed))
	load = []string{
		"create emp (tid, age, dept, salary) cluster on age",
		"create dept (dname, floor) hash on dname buckets 8",
	}
	age = make([]int, empRows)
	for t := range age {
		age[t] = rng.Intn(ages)
		load = append(load, fmt.Sprintf("append to emp (tid = %d, age = %d, dept = %d, salary = %d)",
			t, age[t], rng.Intn(depts), 30000+rng.Intn(50000)))
	}
	for d := 0; d < depts; d++ {
		load = append(load, fmt.Sprintf("append to dept (dname = %d, floor = %d)", d, rng.Intn(floors)))
	}
	for j := 0; j < nProcs; j++ {
		lo := rng.Intn(ages - procWidth)
		def := fmt.Sprintf("retrieve (emp.tid, emp.salary) where emp.age >= %d and emp.age < %d", lo, lo+procWidth)
		if j%2 == 1 {
			def = fmt.Sprintf("retrieve (emp.tid, emp.salary, dept.floor) where emp.age >= %d and emp.age < %d "+
				"and emp.dept = dept.dname and dept.floor = %d", lo, lo+procWidth, rng.Intn(floors))
		}
		defs = append(defs, def)
		load = append(load, fmt.Sprintf("define procedure p%d as %s", j, def))
	}
	return load, defs, age
}

// streams returns one statement generator per client, each seeded from
// the run's seed and the client number. The hot procedures are part of
// the fixed data set.
func (in *sqlInput) streams() []*stmtGen {
	procs := rand.New(rand.NewSource(dataSeed)).Perm(nProcs)
	gens := make([]*stmtGen, clients)
	for c := range gens {
		gens[c] = &stmtGen{rng: rand.New(rand.NewSource(in.seed*1000003 + int64(c) + 1)), procs: procs, age: in.age}
	}
	return gens
}

// stmtGen draws a client's statement mix: 60% executes, 20% ad-hoc
// retrieves, 20% replaces.
type stmtGen struct {
	rng   *rand.Rand
	procs []int // procedure numbers, the hot ones first
	age   []int
}

func (g *stmtGen) next() stmt {
	rng := g.rng
	switch r := rng.Float64(); {
	case r < 0.6:
		p := rng.Intn(hotProcs)
		if rng.Float64() >= 0.8 {
			p = hotProcs + rng.Intn(nProcs-hotProcs)
		}
		return stmt{kExecute, fmt.Sprintf("execute p%d", g.procs[p])}
	case r < 0.8:
		lo := rng.Intn(ages - procWidth)
		return stmt{kRetrieve, fmt.Sprintf("retrieve (emp.tid, dept.floor) where emp.age >= %d and emp.age < %d "+
			"and emp.dept = dept.dname and dept.floor = %d", lo, lo+procWidth, rng.Intn(floors))}
	default:
		t := rng.Intn(empRows)
		return stmt{kReplace, fmt.Sprintf("replace emp (salary = %d) where emp.age = %d and emp.tid = %d",
			30000+rng.Intn(50000), g.age[t], t)}
	}
}

// sqlRun is one served database: the server and a database/sql pool.
type sqlRun struct {
	srv  *server.Server
	addr string
	db   *sql.DB
}

// startServer starts an in-process server on loopback and loads it
// through the driver (the timed set-up: start, load, define).
func startServer(ctx context.Context) (*sqlRun, time.Duration, error) {
	load, _, _ := dataSet()
	runtime.GC()
	t0 := time.Now()
	srv := server.New(server.Options{})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	r := &sqlRun{srv: srv, addr: addr}
	if r.db, err = sql.Open("dbproc", addr); err != nil {
		r.close()
		return nil, 0, err
	}
	r.db.SetMaxOpenConns(clients)
	r.db.SetMaxIdleConns(clients)
	for _, s := range load {
		if _, err := r.db.ExecContext(ctx, s); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("load %q: %w", s, err)
		}
	}
	return r, time.Since(t0), nil
}

// tracedPool swaps the pool for one whose connections are traced.
func (r *sqlRun) tracedPool(t *client.Tracer) {
	r.db.Close()
	r.db = sql.OpenDB(client.NewConnector(r.addr, t))
	r.db.SetMaxOpenConns(clients)
	r.db.SetMaxIdleConns(clients)
}

func (r *sqlRun) close() {
	if r.db != nil {
		r.db.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
}

// sqlPhase is what the clients observed during one phase.
type sqlPhase struct {
	lat        *latencies
	wall       time.Duration
	cpu        time.Duration
	retrieves  atomic.Int64
	failed     atomic.Int64
	badReplace atomic.Int64
}

func (p *sqlPhase) ops() int64 {
	return p.lat.nAccess.Load() + p.lat.nUpdate.Load() + p.retrieves.Load() + p.failed.Load()
}

// phase drives the clients closed-loop, timing QueryContext plus
// draining the rows, or ExecContext for replace statements. Every
// replace must change exactly one tuple.
func (r *sqlRun) phase(ctx context.Context, g *gate, gens []*stmtGen, dur, maxDur time.Duration) *sqlPhase {
	ph := &sqlPhase{lat: newLatencies(clients)}
	ph.wall, ph.cpu = closedLoop(clients, dur, maxDur, ph.lat.enough, func(c int) bool {
		s := gens[c].next()
		t0 := time.Now()
		var n int64
		var err error
		if s.kind == kReplace {
			n, err = r.exec(ctx, s.text)
		} else {
			n, err = r.query(ctx, s.text, nil)
		}
		d := time.Since(t0)
		switch {
		case err != nil:
			ph.failed.Add(1)
		case s.kind == kReplace:
			if n != 1 {
				ph.badReplace.Add(1)
			}
			ph.lat.add(c, opUpdate, d)
		case s.kind == kExecute:
			ph.lat.add(c, opAccess, d)
		default:
			ph.retrieves.Add(1)
			ph.lat.add(c, opOther, d)
		}
		return true
	})
	if n := ph.badReplace.Load(); n > 0 {
		g.failf("sql-served: %d replace statements did not change exactly one tuple", n)
	}
	return ph
}

func (r *sqlRun) exec(ctx context.Context, text string) (int64, error) {
	res, err := r.db.ExecContext(ctx, text)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected()
}

// query runs text and drains its rows, appending them to *out when out
// is non-nil; it returns the row count.
func (r *sqlRun) query(ctx context.Context, text string, out *[][]int64) (int64, error) {
	rows, err := r.db.QueryContext(ctx, text)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return 0, err
	}
	vals := make([]int64, len(cols))
	dest := make([]any, len(cols))
	for i := range vals {
		dest[i] = &vals[i]
	}
	var n int64
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return n, err
		}
		if out != nil {
			*out = append(*out, append([]int64(nil), vals...))
		}
		n++
	}
	return n, rows.Err()
}

func runSQL(rc runConfig) (*report, error) {
	ctx := context.Background()
	g := &gate{}
	rep := newReport()
	in := genSQL(rc.seed)

	var setups []float64
	var r *sqlRun
	for i := 0; i < sqlSetupReps; i++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if r, d, err = startServer(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer r.close()

	gens := in.streams()
	r.phase(ctx, g, gens, rc.warmup(), rc.warmup())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := r.phase(ctx, g, gens, rc.phase(), rc.maxPhase())
	runtime.ReadMemStats(&m1)

	rep.attempted = ph.ops()
	rep.failed = ph.failed.Load()
	rep.prov["stmts_timed"] = ph.ops()
	rep.prov["access_samples"] = ph.lat.nAccess.Load()
	rep.prov["update_samples"] = ph.lat.nUpdate.Load()
	rep.prov["retrieves"] = ph.retrieves.Load()
	rep.prov["emp_rows"] = empRows
	rep.prov["procedures"] = nProcs
	rep.prov["setup_samples_s"] = setups
	rp, err := replaySQL(in)
	if err != nil {
		return nil, err
	}
	opsPerSec, err := rep.endToEnd(ph.lat, ph.wall, ph.cpu, median(setups), rp.simMsPerAccess)
	if err != nil {
		return nil, err
	}
	ph.lat.release()
	rep.liveHeap()
	for name, v := range rp.metrics {
		rep.metrics[name] = v
	}
	rep.processMetrics(&m0, &m1, ph.ops(), ph.wall)

	if rc.traced {
		tracer := client.NewTracer(nil)
		r.tracedPool(tracer)
		r.phase(ctx, g, gens, rc.warmup(), rc.warmup())
		st0 := tracer.Stats()
		tph := r.phase(ctx, g, gens, rc.phase(), rc.maxPhase())
		st := tracer.Stats()
		rep.prov["traced_stmts"] = tph.ops()
		rep.prov["traced_failed"] = tph.failed.Load()
		m := rep.metrics
		completed := float64(tph.ops() - tph.failed.Load())
		clientNs := float64(st.ClientWallNs - st0.ClientWallNs)
		serverNs := float64(st.ServerWallNs - st0.ServerWallNs)
		m.put("client.network_share", "ratio", ratio(clientNs-serverNs, clientNs))
		m.put("server.gate_wait_share", "ratio", ratio(float64(st.GateNs-st0.GateNs), serverNs))
		m.put("server.compute_us_per_stmt", "us", ratio(float64(st.ComputeNs-st0.ComputeNs)/1e3, float64(st.WithServer-st0.WithServer)))
		// The quel session has no engine: no lock table, critical-path
		// split or view-maintenance replay on this path.
		for _, name := range []string{"engine.lock_wait_share", "engine.access_wait_share"} {
			m.put(name, "ratio", 0)
		}
		for _, name := range []string{"engine.critpath.lock_wait_us_per_op", "engine.critpath.io_us_per_op",
			"engine.critpath.recompute_us_per_op", "engine.critpath.compute_us_per_op", "rete.maintain_us_per_update"} {
			m.put(name, "us", 0)
		}
		m.put("rete.screens_per_update", "count", 0)
		m.put("trace.overhead_ratio", "ratio", (completed/tph.wall.Seconds())/opsPerSec)
	}

	// Gate: each procedure's execute rows equal its definition run as a
	// plain retrieve.
	for j, def := range in.defs {
		var got, want [][]int64
		_, err1 := r.query(ctx, fmt.Sprintf("execute p%d", j), &got)
		_, err2 := r.query(ctx, def, &want)
		if err1 != nil || err2 != nil {
			g.failf("sql-served: procedure p%d: execute: %v, retrieve: %v", j, err1, err2)
		} else if !sameRows(got, want) {
			g.failf("sql-served: procedure p%d: execute returned %d rows, its definition %d", j, len(got), len(want))
		}
	}
	return rep.done(g), nil
}

// sqlReplay is what replaySQL measured.
type sqlReplay struct {
	simMsPerAccess float64
	metrics        metricSet
}

// replayStmts is the length of the in-process replay, and codecFrames
// how many of its requests and results the wire codec is timed over.
const (
	replayStmts = 20000
	codecFrames = 4000
)

// replaySQL replays the first replayStmts statements of the workload's
// streams, the clients taking turns, in process on a fresh quel session
// loaded with the same data. The simulated costs and counts come from
// this replay rather than from the served session's meter, which the
// server goroutines write with no synchronization a reader could use;
// they are then the same on every run of a seed, whatever the timing.
// The replay also times quel.Parse per statement and the executor per
// ad-hoc retrieve (recomputed every time), counts the executes answered
// from a valid cache, and times the wire encoding of each request and
// its result.
func replaySQL(in *sqlInput) (*sqlReplay, error) {
	db := quel.Open(0, 0, metric.DefaultCosts())
	load, _, _ := dataSet()
	for _, s := range load {
		if _, err := db.Run(s); err != nil {
			return nil, fmt.Errorf("replay load %q: %w", s, err)
		}
	}
	before := db.Meter().Snapshot()
	var parseNs, retrieveNs, nRetrieve, executes, hits, replaces, rows int64
	var frames []frame
	gens := in.streams()
	for i := 0; i < replayStmts; i++ {
		s := gens[i%clients].next()
		t0 := time.Now()
		parsed, err := quel.Parse(s.text)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay parse %q: %w", s.text, err)
		}
		res, err := db.RunParsed(parsed)
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay %q: %w", s.text, err)
		}
		parseNs += int64(t1.Sub(t0))
		rows += int64(len(res.Rows))
		switch s.kind {
		case kRetrieve:
			retrieveNs += int64(t2.Sub(t1))
			nRetrieve++
		case kExecute:
			executes++
			if strings.Contains(res.Message, "(from cache)") {
				hits++
			}
		case kReplace:
			replaces++
		}
		if len(frames) < codecFrames {
			frames = append(frames, frame{wire.TStmt, &wire.Stmt{Text: s.text}},
				frame{wire.TResult, &wire.Result{
					Message: res.Message, Columns: res.Columns, Rows: res.Rows,
					Affected: res.Affected, CostMs: res.CostMs, WallNs: int64(t2.Sub(t1)),
				}})
		}
	}
	c := db.Meter().Snapshot().Sub(before)
	m := metricSet{}
	m.put("storage.page_reads_per_op", "count", float64(c.PageReads)/replayStmts)
	m.put("storage.page_writes_per_op", "count", float64(c.PageWrites)/replayStmts)
	m.put("query.screens_per_tuple", "count", ratio(float64(c.Screens), float64(rows)))
	m.put("cache.invalidations_per_update", "count", ratio(float64(c.Invalidations), float64(replaces)))
	m.put("quel.parse_us", "us", float64(parseNs)/1e3/replayStmts)
	m.put("query.recompute_us", "us", ratio(float64(retrieveNs)/1e3, float64(nRetrieve)))
	m.put("cache.hit_ratio", "ratio", ratio(float64(hits), float64(executes)))
	us, b := codec(frames)
	m.put("wire.codec_us_per_frame", "us", us)
	m.put("wire.bytes_per_request", "bytes", b)
	return &sqlReplay{simMsPerAccess: ratio(c.Milliseconds(db.Meter().Costs()), float64(executes)), metrics: m}, nil
}

// frame is one wire message with its type byte.
type frame struct {
	typ byte
	msg any
}

// codec encodes and decodes request/response frame pairs through the
// wire package's public frame functions, repeating the sample for at
// least codecBudget, and returns the mean time per frame and the mean
// bytes per request/response pair.
func codec(frames []frame) (usPerFrame, bytesPerRequest float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	var buf bytes.Buffer
	var n, total int64
	start := time.Now()
	for time.Since(start) < codecBudget {
		for _, f := range frames {
			buf.Reset()
			if err := wire.WriteFrame(&buf, f.typ, f.msg); err != nil {
				panic(err) // the frames are the package's own message types
			}
			total += int64(buf.Len())
			typ, payload, err := wire.ReadFrame(&buf)
			if err == nil {
				_, err = wire.Decode(typ, payload)
			}
			if err != nil {
				panic(err)
			}
			n++
		}
	}
	el := time.Since(start)
	return float64(el.Nanoseconds()) / 1e3 / float64(n), 2 * float64(total) / float64(n)
}

const codecBudget = 500 * time.Millisecond
