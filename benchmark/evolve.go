package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/graphlet"
	"github.com/midas-graph/midas/internal/iso"
)

// evolveInstances is the number of databases one evolve round runs
// the trace on.
const evolveInstances = 4

// runEvolve bootstraps an engine behind the panel and POSTs the
// maintenance trace to /maintain synchronously, on each instance of a
// round, in whole rounds until the measured time reaches --seconds.
// After each trace one f_div audit operation runs on the fixed audit
// input; it fails until Indices.TighterGED is a true lower bound.
func runEvolve(r *run) {
	audit := newDivAudit(r)
	var setupWall, setupCPU, traceWall, traceCPU, batchLat, steps, heap []float64
	measured := time.Duration(0)
	for measured < r.seconds {
		for i := 0; i < evolveInstances; i++ {
			st := evolveInstance(r, instanceSeed(r.seed, i))
			setupWall = append(setupWall, st.setupWall)
			setupCPU = append(setupCPU, st.setupCPU)
			traceWall = append(traceWall, st.traceWall)
			traceCPU = append(traceCPU, st.traceCPU)
			batchLat = append(batchLat, st.batchLat...)
			steps = append(steps, st.steps)
			heap = append(heap, st.heap)
			measured += time.Duration((st.setupWall + st.traceWall) * float64(time.Second))
			r.op(audit.audit())
			logf("evolve instance %d: setup %.2fs, trace %.2fs", i, st.setupWall, st.traceWall)
		}
	}
	batches := float64(len(traceSpecs))
	r.setE2E("setup_s", "s", median(setupWall))
	r.setE2E("op_ms", "ms", 1e3*geomean(traceWall)/batches)
	r.setE2E("op_cpu_ms", "ms", 1e3*geomean(traceCPU)/batches)
	r.setE2E("heap_mb", "MB", mean(heap))
	r.setE2E("formulation_steps", "steps", mean(steps))
	r.setFigure("setup_cpu_s", "s", mean(setupCPU))
	r.setFigure("maintain_s", "s", mean(traceWall))
	r.setFigure("maintain_cpu_s", "s", mean(traceCPU))
	r.setFigure("batch_p50_ms", "ms", 1e3*median(batchLat))
	traces := float64(len(traceWall))
	r.perUnit(perSetup, traces)
	r.perUnit(perBatch, traces)
	r.perUnit(perOp, traces)
	r.finishLayers()
}

// instanceStats is what one instance contributes to the run.
type instanceStats struct {
	setupWall, setupCPU float64
	traceWall, traceCPU float64
	batchLat            []float64
	steps, heap         float64
}

func evolveInstance(r *run, seed int64) instanceStats {
	var st instanceStats
	opts := options(seed)

	// Inputs: the trace is drawn against the benchmark's own replay of
	// the database, which the oracles compare the engine with.
	iso.ResetMemo()
	ged.ResetMemo()
	c0 := r.readCounters()
	sw := start()
	setupSpan := r.tracer.begin("setup")
	replay := []*graph.Database{baseDB(seed)}
	updates := make([]graph.Update, len(traceSpecs))
	for k, spec := range traceSpecs {
		updates[k] = makeUpdate(spec, replay[k], seed, k)
		next, err := replay[k].ApplyToCopy(updates[k])
		r.check(err)
		replay = append(replay, next)
	}
	boot := r.tracer.begin("midas.New")
	eng := midas.New(baseDB(seed), opts)
	r.tracer.end(boot)
	pub := r.tracer.begin("panel.first_publish")
	p := newPanel(eng, opts)
	r.tracer.end(pub)
	r.tracer.end(setupSpan)
	w, c := sw.stop()
	st.setupWall, st.setupCPU = secs(w), secs(c)
	r.addCounters("setup", c0, r.readCounters())
	defer p.close()

	// Oracle inputs, computed outside every timed span.
	psi := make([][graphlet.NumTypes]float64, len(replay))
	for k, db := range replay {
		psi[k] = graphletDistribution(db)
	}
	_, gen, err := p.patterns()
	r.check(err)
	r.check(checkGeneration(0, gen))

	var vars0 map[string]interface{}
	if r.traced {
		vars0 = p.vars()
	}
	for k, u := range updates {
		before := r.readCounters()
		span := r.tracer.begin("POST /maintain")
		sw := start()
		resp, err := p.maintain(u)
		w, c := sw.stop()
		r.tracer.end(span)
		r.addCounters("", before, r.readCounters())
		st.traceWall += secs(w)
		st.traceCPU += secs(c)
		st.batchLat = append(st.batchLat, secs(w))
		r.op(err == nil)
		if err != nil {
			r.check(err)
			continue
		}
		// Oracles: generation, graphlet distance, database, budget.
		r.check(checkGeneration(gen, resp.Generation))
		gen = resp.Generation
		r.check(checkDistance(resp.GraphletDistance, graphlet.Distance(psi[k], psi[k+1])))
		r.check(checkDB(eng.DB(), replay[k+1]))
		served, sgen, err := p.patterns()
		r.check(err)
		if sgen != gen {
			r.check(fmt.Errorf("/patterns serves generation %d after /maintain published %d", sgen, gen))
		}
		r.check(checkBudget(served))
		if r.traced {
			rep := p.lastReport()
			r.addReport(rep)
			r.addLayer("snapshot.queue_wait_s", "s", secs(w)-rep.PMT.Seconds())
			// Served-set f_div audit on this seed's data: counted, not
			// failed, because whether the pruned pair holds the minimum
			// depends on the data.
			exact, err := exactDiv(served)
			r.check(err)
			q, err := p.quality()
			r.check(err)
			if q["div"] != exact {
				r.addLayer("quality.div_overstated", "count", 1)
			}
		}
	}
	if r.traced {
		vars1 := p.vars()
		publish := varSum(vars1, "midas_snapshot_publish_seconds") - varSum(vars0, "midas_snapshot_publish_seconds")
		r.addLayer("snapshot.publish_s", "s", publish)
		r.addLayer("snapshot.queue_wait_s", "s", -publish)
		r.addLayer("panel.requests", "count", float64(len(updates)))
		r.addLayer("panel.handler_s", "s",
			varSum(vars1, "panel_http_request_seconds")-varSum(vars0, "panel_http_request_seconds"))
	}

	served, _, err := p.patterns()
	r.check(err)
	final := replay[len(replay)-1]
	st.steps = r.measureQuality(final, served, seed, p)
	st.heap = heapMB()
	if r.traced {
		r.traceStages(final, seed)
	}
	var b bytes.Buffer
	r.check(midas.SaveState(&b, eng, opts))
	r.sample = sample{db: final, patterns: served, bundle: b.Bytes()}
	return st
}

// measureQuality computes the served set's quality apart from the
// engine — exact scov over every graph, exact pairwise GED, lcov and
// cog from an unsampled midas.Evaluator — and returns the mean
// pattern-at-a-time formulation steps over a fixed query list drawn
// from db. The quality figures go to the per-layer metrics of a traced
// run.
func (r *run) measureQuality(db *graph.Database, ps []*graph.Graph, seed int64, p *panelClient) float64 {
	queries := dataset.Queries(db.Graphs(), formulationQueries, queryMin, queryMax, seed+7)
	f := midas.NewFormulator(gamma, 0)
	total := 0.0
	for _, q := range queries {
		total += float64(f.PatternAtATime(q, ps).Steps)
	}
	steps := total / float64(len(queries))
	if !r.traced {
		return steps
	}
	covered := 0
	for _, g := range db.Graphs() {
		for _, pt := range ps {
			if labelsFit(pt, g) && iso.Contains(g, pt) {
				covered++
				break
			}
		}
	}
	scov := float64(covered) / float64(db.Len())
	opts := options(seed)
	opts.SampleSize = 0
	ev := midas.NewEvaluator(db, opts).Quality(ps)
	div, err := exactDiv(ps)
	r.check(err)
	n := r.layerCount
	r.layerCount++
	avg := func(name, unit string, v float64) {
		old := r.layer[name].Value
		r.setLayer(name, unit, (old*float64(n)+v)/float64(n+1))
	}
	avg("quality.scov", "ratio", scov)
	avg("quality.lcov", "ratio", ev.Lcov)
	avg("quality.div", "ged", div)
	avg("quality.cog", "load", ev.Cog)
	if ev.Cog > 0 {
		avg("quality.score", "score", scov*ev.Lcov*div/ev.Cog)
	}
	avg("gui.missed_pct", "%", midas.MissedPercentage(queries, ps))
	if p != nil {
		q, err := p.quality()
		r.check(err)
		avg("quality.div_reported", "ged", q["div"])
	}
	return steps
}

// addReport adds one maintenance report to the core.* metrics.
func (r *run) addReport(rep midas.MaintenanceReport) {
	r.addLayer("core.pmt_s", "s", rep.PMT.Seconds())
	r.addLayer("core.cluster_s", "s", rep.ClusterTime.Seconds())
	r.addLayer("core.fct_s", "s", rep.FCTTime.Seconds())
	r.addLayer("core.csg_s", "s", rep.CSGTime.Seconds())
	r.addLayer("core.index_s", "s", rep.IndexTime.Seconds())
	r.addLayer("core.candidates_s", "s", rep.CandidateTime.Seconds())
	r.addLayer("core.swap_s", "s", rep.SwapTime.Seconds())
	r.addLayer("core.small_s", "s", rep.SmallTime.Seconds())
	major := 0.0
	if rep.Major {
		major = 1
	}
	r.addLayer("core.major_batches", "count", major)
	r.addLayer("core.swaps", "count", float64(rep.Swaps))
	r.addLayer("core.candidates", "count", float64(rep.Candidates))
	r.addLayer("core.scans", "count", float64(rep.Scans))
}
