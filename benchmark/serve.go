package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/iso"
)

const (
	// serveInstances is the number of databases one serve run boots.
	serveInstances = 2
	// serveQueries is the size of each instance's query list.
	serveQueries = 200
	// patternsEvery is the number of queries between two GET /patterns.
	patternsEvery = 10
)

// answer is one served /query response, checked after the phase.
type answer struct {
	query   int
	gen     uint64
	matches []int
}

// runServe runs one closed-loop client against the panel of each
// instance, engine at Workers 1: first idle, in whole passes over the
// query list for --seconds split over the instances, then while the
// same major batch goes through /maintain.
func runServe(r *run) {
	window := r.seconds / serveInstances
	var setupWall, setupCPU, idle, idleCPU, busy, busyWall, busyCPU, steps, heap []float64
	queries := 0
	for i := 0; i < serveInstances; i++ {
		st := serveInstance(r, instanceSeed(r.seed, i), window)
		setupWall = append(setupWall, st.setupWall)
		setupCPU = append(setupCPU, st.setupCPU)
		idle = append(idle, st.idle...)
		idleCPU = append(idleCPU, st.idleCPU)
		queries += len(st.idle)
		busy = append(busy, st.busy...)
		busyWall = append(busyWall, st.busyWall)
		busyCPU = append(busyCPU, st.busyCPU)
		steps = append(steps, st.steps)
		heap = append(heap, st.heap)
	}
	total := 0.0
	for _, c := range idleCPU {
		total += c
	}
	r.setE2E("setup_s", "s", median(setupWall))
	r.setE2E("op_ms", "ms", 1e3*median(idle))
	r.setE2E("op_cpu_ms", "ms", 1e3*total/float64(queries))
	r.setE2E("heap_mb", "MB", mean(heap))
	r.setE2E("formulation_steps", "steps", mean(steps))
	r.setFigure("setup_cpu_s", "s", mean(setupCPU))
	r.setFigure("maintain_s", "s", mean(busyWall))
	r.setFigure("maintain_cpu_s", "s", mean(busyCPU))
	r.setFigure("query_p50_ms", "ms", 1e3*median(idle))
	r.setFigure("query_p99_ms", "ms", 1e3*quantile(idle, 0.99))
	r.setFigure("query_cpu_us", "us", 1e6*total/float64(queries))
	r.setFigure("query_busy_p50_ms", "ms", 1e3*median(busy))
	r.setFigure("query_busy_p99_ms", "ms", 1e3*quantile(busy, 0.99))
	r.perUnit(perSetup, serveInstances)
	r.perUnit(perBatch, serveInstances)
	r.perUnit(perOp, float64(queries))
	r.finishLayers()
}

type serveStats struct {
	setupWall, setupCPU float64
	idle, busy          []float64
	idleCPU             float64
	busyWall, busyCPU   float64
	steps, heap         float64
}

func serveInstance(r *run, seed int64, window time.Duration) serveStats {
	var st serveStats
	opts := options(seed)
	iso.ResetMemo()
	ged.ResetMemo()
	c0 := r.readCounters()
	sw := start()
	span := r.tracer.begin("setup")
	eng := midas.New(baseDB(seed), opts)
	eng.SetWorkers(1)
	opts.Workers = 1
	p := newPanel(eng, opts)
	r.tracer.end(span)
	w, c := sw.stop()
	st.setupWall, st.setupCPU = secs(w), secs(c)
	r.addCounters("setup", c0, r.readCounters())
	defer p.close()

	// Inputs and oracle state, outside the timed phases.
	before := baseDB(seed)
	u := makeUpdate(busySpec, before, seed, len(traceSpecs))
	after, err := before.ApplyToCopy(u)
	r.check(err)
	dbs := map[uint64]*graph.Database{1: before, 2: after}
	queries := balancedQueries(after, u.Insert, serveQueries, seed+11)
	var answers []answer

	ask := func(qi int, idle bool) {
		lat := &st.busy
		if idle {
			lat = &st.idle
		}
		span := r.tracer.begin("POST /query")
		t0 := time.Now()
		rec := p.do(http.MethodPost, "/query", queries[qi].text)
		*lat = append(*lat, time.Since(t0).Seconds())
		r.tracer.end(span)
		resp, gen, err := decodeQuery(rec)
		r.op(err == nil)
		r.check(err)
		answers = append(answers, answer{qi, gen, resp.Matches})
		if r.traced && idle {
			r.addLayer("search.candidates", "count", float64(resp.Candidates))
			r.addLayer("search.verified", "count", float64(len(resp.Matches)))
		}
		if len(answers)%patternsEvery == 0 {
			_, _, err := p.patterns()
			r.op(err == nil)
			r.check(err)
		}
	}

	// Idle: whole passes over the query list until the window is used.
	var vars0 map[string]interface{}
	if r.traced {
		vars0 = p.vars()
	}
	c1 := r.readCounters()
	sw = start()
	for time.Since(sw.wall) < window {
		for qi := range queries {
			ask(qi, true)
		}
	}
	_, c = sw.stop()
	st.idleCPU = secs(c)
	r.addCounters("", c1, r.readCounters())
	if r.traced {
		vars1 := p.vars()
		r.addLayer("panel.requests", "count", varSum(vars1, "panel_http_requests_total")-varSum(vars0, "panel_http_requests_total"))
		r.addLayer("panel.handler_s", "s", varSum(vars1, "panel_http_request_seconds")-varSum(vars0, "panel_http_request_seconds"))
		vars0 = vars1
	}

	// Busy: the same major batch every run, with the client querying
	// until its response arrives.
	done := make(chan struct{})
	var mresp maintainResponse
	var merr error
	sw = start()
	go func() {
		defer close(done)
		mresp, merr = p.maintain(u)
	}()
	for qi := 0; ; qi = (qi + 1) % len(queries) {
		select {
		case <-done:
		default:
			ask(qi, false)
			continue
		}
		break
	}
	w, c = sw.stop()
	st.busyWall, st.busyCPU = secs(w), secs(c)
	r.op(merr == nil)
	r.check(merr)
	r.check(checkGeneration(1, mresp.Generation))
	if r.traced {
		vars1 := p.vars()
		rep := p.lastReport()
		r.addReport(rep)
		publish := varSum(vars1, "midas_snapshot_publish_seconds") - varSum(vars0, "midas_snapshot_publish_seconds")
		r.addLayer("snapshot.publish_s", "s", publish)
		r.addLayer("snapshot.queue_wait_s", "s", st.busyWall-rep.PMT.Seconds()-publish)
	}

	// Oracles: every answer against a brute-force scan of the database
	// of the generation that served it.
	want := map[[2]uint64][]int{}
	for _, a := range answers {
		db := dbs[a.gen]
		if db == nil {
			r.check(fmt.Errorf("query answered by unknown generation %d", a.gen))
			continue
		}
		key := [2]uint64{uint64(a.query), a.gen}
		w, ok := want[key]
		if !ok {
			w = bruteMatches(db, queries[a.query].g)
			want[key] = w
		}
		src := queries[a.query].source
		r.check(checkMatches(a.matches, w, src, db.Has(src)))
	}
	r.check(checkDB(eng.DB(), after))

	served, _, err := p.patterns()
	r.check(err)
	r.check(checkBudget(served))
	st.steps = r.measureQuality(after, served, seed, p)
	st.heap = heapMB()
	if r.traced {
		r.traceStages(before, seed)
	}
	var b bytes.Buffer
	r.check(midas.SaveState(&b, eng, opts))
	r.sample = sample{db: after, patterns: served, bundle: b.Bytes()}
	return st
}
