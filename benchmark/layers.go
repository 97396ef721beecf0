package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/csg"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/graphlet"
	"github.com/midas-graph/midas/internal/index"
	"github.com/midas-graph/midas/internal/index/delta"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/parallel"
	"github.com/midas-graph/midas/internal/tree"
)

// counters is a point-in-time copy of the process-wide kernel, memo,
// selection, delta-network and Go runtime counters the program
// exports. They are attributed to a phase by diffing two copies.
type counters struct {
	iso   iso.Stats
	ged   ged.Stats
	par   parallel.Stats
	cat   catapult.SelStats
	delta delta.Stats
	alloc uint64
	gcs   uint32
	pause uint64
}

// readCounters copies the counters in a traced run only, so that an
// untraced run pays nothing for them.
func (r *run) readCounters() counters {
	if !r.traced {
		return counters{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		iso: iso.Snapshot(), ged: ged.Snapshot(), par: parallel.Snapshot(),
		cat: catapult.Snapshot(), delta: delta.Snapshot(),
		alloc: ms.TotalAlloc, gcs: ms.NumGC, pause: ms.PauseTotalNs,
	}
}

// addCounters adds the work between a and b to the run's per-layer
// metrics. Phase "" is the workload's measured phase; "setup" gets a
// short prefixed subset.
func (r *run) addCounters(phase string, a, b counters) {
	if !r.traced {
		return
	}
	if phase == "setup" {
		r.addLayer("setup.mccs_steps", "count", float64(b.iso.MCCSSteps-a.iso.MCCSSteps))
		r.addLayer("setup.vf2_steps", "count", float64(b.iso.VF2Steps-a.iso.VF2Steps))
		r.addLayer("setup.ged_exact_calls", "count", float64(b.ged.ExactCalls-a.ged.ExactCalls))
		r.addLayer("setup.cache_hits", "count", float64(b.par.CacheHits-a.par.CacheHits))
		r.addLayer("setup.cache_misses", "count", float64(b.par.CacheMisses-a.par.CacheMisses))
		r.addLayer("catapult.select_s", "s", b.cat.SelectSeconds-a.cat.SelectSeconds)
		return
	}
	r.addLayer("iso.vf2_searches", "count", float64(b.iso.VF2Searches-a.iso.VF2Searches))
	r.addLayer("iso.vf2_steps", "count", float64(b.iso.VF2Steps-a.iso.VF2Steps))
	r.addLayer("iso.vf2_cap_hits", "count", float64(b.iso.VF2CapHits-a.iso.VF2CapHits))
	r.addLayer("iso.mccs_searches", "count", float64(b.iso.MCCSSearches-a.iso.MCCSSearches))
	r.addLayer("iso.mccs_steps", "count", float64(b.iso.MCCSSteps-a.iso.MCCSSteps))
	r.addLayer("iso.mccs_budget_hits", "count", float64(b.iso.MCCSBudgetHits-a.iso.MCCSBudgetHits))
	r.addLayer("ged.exact_calls", "count", float64(b.ged.ExactCalls-a.ged.ExactCalls))
	r.addLayer("ged.exact_expanded", "count", float64(b.ged.ExactExpanded-a.ged.ExactExpanded))
	r.addLayer("ged.exact_cap_hits", "count", float64(b.ged.ExactCapHits-a.ged.ExactCapHits))
	r.addLayer("ged.bipartite_calls", "count", float64(b.ged.BipartiteCalls-a.ged.BipartiteCalls))
	r.addLayer("catapult.walks", "count", float64(b.cat.Walks-a.cat.Walks))
	r.addLayer("catapult.candidates", "count", float64(b.cat.Candidates-a.cat.Candidates))
	r.addLayer("catapult.generate_s", "s", b.cat.GenerateSeconds-a.cat.GenerateSeconds)
	r.addLayer("delta.verdicts_computed", "count", float64(b.delta.VerdictsComputed-a.delta.VerdictsComputed))
	r.addLayer("delta.verdicts_cached", "count", float64(b.delta.VerdictsCached-a.delta.VerdictsCached))
	r.addLayer("delta.rows_touched", "count", float64(b.delta.RowsTouched-a.delta.RowsTouched))
	r.addLayer("delta.rebuilds", "count", float64(b.delta.Rebuilds-a.delta.Rebuilds))
	r.addLayer("parallel.tasks", "count", float64(b.par.Tasks-a.par.Tasks))
	r.addLayer("parallel.cache_hits", "count", float64(b.par.CacheHits-a.par.CacheHits))
	r.addLayer("parallel.cache_misses", "count", float64(b.par.CacheMisses-a.par.CacheMisses))
	r.addLayer("parallel.cache_evictions", "count", float64(b.par.CacheEvictions-a.par.CacheEvictions))
	r.addLayer("go.alloc_mb", "MB", float64(b.alloc-a.alloc)/(1<<20))
	r.addLayer("go.gc_cycles", "count", float64(b.gcs-a.gcs))
	r.addLayer("go.gc_pause_ms", "ms", float64(b.pause-a.pause)/1e6)
}

// finishLayers derives the ratio metrics and fills every per-layer
// name the workload did not touch with 0, so each traced run reports
// the full set.
func (r *run) finishLayers() {
	ratio := func(name string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		r.setLayer(name, "ratio", v)
	}
	h, m := r.layer["parallel.cache_hits"].Value, r.layer["parallel.cache_misses"].Value
	ratio("parallel.cache_hit_ratio", h, h+m)
	ratio("search.filter_precision", r.layer["search.verified"].Value, r.layer["search.candidates"].Value)
	for _, l := range layerMetrics {
		if _, ok := r.layer[l.name]; !ok {
			r.setLayer(l.name, l.unit, 0)
		}
	}
}

// layerMetrics lists every per-layer metric a traced run reports.
var layerMetrics = []struct{ name, unit string }{
	{"panel.requests", "count"}, {"panel.handler_s", "s"},
	{"snapshot.publish_s", "s"}, {"snapshot.queue_wait_s", "s"},
	{"core.pmt_s", "s"}, {"core.cluster_s", "s"}, {"core.fct_s", "s"}, {"core.csg_s", "s"},
	{"core.index_s", "s"}, {"core.candidates_s", "s"}, {"core.swap_s", "s"}, {"core.small_s", "s"},
	{"core.major_batches", "count"}, {"core.swaps", "count"}, {"core.candidates", "count"},
	{"core.scans", "count"}, {"core.apply_replicated_s", "s"},
	{"tree.mine_s", "s"}, {"cluster.build_s", "s"}, {"csg.build_s", "s"}, {"index.build_s", "s"},
	{"graphlet.count_s", "s"}, {"catapult.select_s", "s"},
	{"state.decode_s", "s"}, {"state.save_s", "s"}, {"state.bundle_bytes", "bytes"},
	{"iso.vf2_searches", "count"}, {"iso.vf2_steps", "count"}, {"iso.vf2_cap_hits", "count"},
	{"iso.mccs_searches", "count"}, {"iso.mccs_steps", "count"}, {"iso.mccs_budget_hits", "count"},
	{"ged.exact_calls", "count"}, {"ged.exact_expanded", "count"}, {"ged.exact_cap_hits", "count"},
	{"ged.bipartite_calls", "count"},
	{"catapult.walks", "count"}, {"catapult.candidates", "count"}, {"catapult.generate_s", "s"},
	{"delta.verdicts_computed", "count"}, {"delta.verdicts_cached", "count"},
	{"delta.rows_touched", "count"}, {"delta.rebuilds", "count"},
	{"parallel.tasks", "count"}, {"parallel.cache_hits", "count"}, {"parallel.cache_misses", "count"},
	{"parallel.cache_hit_ratio", "ratio"}, {"parallel.cache_evictions", "count"},
	{"search.candidates", "count"}, {"search.verified", "count"}, {"search.filter_precision", "ratio"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"quality.scov", "ratio"}, {"quality.lcov", "ratio"}, {"quality.div", "ged"}, {"quality.cog", "load"},
	{"quality.div_reported", "ged"}, {"quality.score", "score"}, {"quality.div_overstated", "count"},
	{"gui.missed_pct", "%"},
	{"setup_cpu_s", "s"}, {"maintain_s", "s"}, {"maintain_cpu_s", "s"}, {"batch_p50_ms", "ms"},
	{"restore_s", "s"}, {"restore_cpu_s", "s"}, {"catchup_s", "s"},
	{"query_p50_ms", "ms"}, {"query_p99_ms", "ms"}, {"query_cpu_us", "us"},
	{"query_busy_p50_ms", "ms"}, {"query_busy_p99_ms", "ms"},
	{"setup.mccs_steps", "count"}, {"setup.vf2_steps", "count"}, {"setup.ged_exact_calls", "count"},
	{"setup.cache_hits", "count"}, {"setup.cache_misses", "count"},
}

// span is one traced interval; parent indexes the enclosing span (-1
// at the root). Times are offsets from the tracer's start.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory and writes them when the run ends. It is
// used from the client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one; a nil tracer
// records nothing.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].End - t.spans[id].Start
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceStages replays the stages that midas.New and LoadState run
// before selection — FCT mining, clustering, cluster summaries,
// indices, graphlet counting — on a copy of db with cold memos, each
// inside its own span, and adds the stage times to the per-layer
// metrics. The engine does not report these stages itself.
func (r *run) traceStages(db *graph.Database, seed int64) {
	iso.ResetMemo()
	ged.ResetMemo()
	db = db.Clone()
	opts := options(seed)
	stage := func(name string, fn func()) {
		id := r.tracer.begin(name)
		fn()
		r.addLayer(name+"_s", "s", secs(r.tracer.end(id)))
	}
	var set *tree.Set
	var cl *cluster.Clustering
	stage("tree.mine", func() { set = tree.Mine(db, opts.SupMin, 3) })
	stage("cluster.build", func() {
		cl = cluster.Build(db, set, cluster.Config{MaxSize: opts.ClusterMaxSize, Workers: workers},
			rand.New(rand.NewSource(seed)))
	})
	stage("csg.build", func() {
		m := csg.NewManager(0)
		m.SetMemo(true)
		m.BuildAll(cl)
	})
	stage("index.build", func() { index.Build(set, db, nil) })
	stage("graphlet.count", func() { graphlet.NewCounter(db) })
}
