package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/iso"
)

// restartInstances is the number of primaries whose histories one
// restart round replays.
const restartInstances = 2

// record is one replicated batch as a follower receives it: the
// update, the primary's post-apply pattern set, and the primary's
// state bundle after the batch (the per-LSN fingerprint).
type record struct {
	update   string
	deletes  []int
	patterns string
	bundle   []byte
}

// history is a primary's recorded past: its bundle at the trace's
// middle LSN and the records of every later batch.
type history struct {
	seed    int64
	mid     []byte
	midDB   *graph.Database
	records []record
	final   *graph.Database
}

// runRestart records each instance's primary history during set-up,
// then repeats follower cold starts — cold memos, LoadState of the
// middle bundle, ApplyReplicated and SaveState for every later record —
// in whole rounds over the instances until the measured time reaches
// --seconds.
func runRestart(r *run) {
	var setupWall, setupCPU []float64
	hs := make([]*history, restartInstances)
	for i := range hs {
		var w, c float64
		hs[i], w, c = recordHistory(r, instanceSeed(r.seed, i))
		setupWall = append(setupWall, w)
		setupCPU = append(setupCPU, c)
	}
	// One row per restart: restore wall and CPU, catch-up wall and CPU,
	// cold start (restore + catch-up) wall and CPU. A figure is the
	// geometric mean over instances of each instance's median.
	restore := make([][6]float64, 0, 2*len(hs))
	heap := 0.0
	measured := time.Duration(0)
	for measured < r.seconds {
		for _, h := range hs {
			rw, rc, cw, cc, hp := coldRestart(r, h, len(restore) < len(hs))
			restore = append(restore, [6]float64{rw, rc, cw, cc, rw + cw, rc + cc})
			heap += hp
			measured += time.Duration((rw + cw) * float64(time.Second))
		}
	}
	fig := func(k int) float64 {
		per := make([]float64, len(hs))
		for i := range hs {
			var xs []float64
			for j := i; j < len(restore); j += len(hs) {
				xs = append(xs, restore[j][k])
			}
			per[i] = median(xs)
		}
		return geomean(per)
	}
	r.setE2E("setup_s", "s", median(setupWall))
	r.setE2E("op_ms", "ms", 1e3*fig(4))
	r.setE2E("op_cpu_ms", "ms", 1e3*fig(5))
	r.setE2E("heap_mb", "MB", heap/float64(len(restore)))
	r.setFigure("setup_cpu_s", "s", mean(setupCPU))
	r.setFigure("restore_s", "s", fig(0))
	r.setFigure("restore_cpu_s", "s", fig(1))
	r.setFigure("catchup_s", "s", fig(2))
	r.setFigure("maintain_s", "s", fig(2))
	r.setFigure("maintain_cpu_s", "s", fig(3))
	r.perUnit(perSetup, float64(len(hs)))
	r.perUnit(perBatch, float64(len(restore)))
	r.perUnit(perOp, float64(len(restore)))
	steps := 0.0
	for _, h := range hs {
		steps += r.measureQuality(h.final, patternsOf(r, h.records[len(h.records)-1].patterns), h.seed, nil)
	}
	r.setE2E("formulation_steps", "steps", steps/float64(len(hs)))
	r.finishLayers()
}

// recordHistory bootstraps a primary and runs the evolve trace on it
// with Engine.Maintain, saving its bundle at the middle LSN and a
// record for every later batch. It returns the set-up wall and CPU
// seconds.
func recordHistory(r *run, seed int64) (*history, float64, float64) {
	opts := options(seed)
	iso.ResetMemo()
	ged.ResetMemo()
	c0 := r.readCounters()
	sw := start()
	span := r.tracer.begin("setup")
	h := &history{seed: seed}
	db := baseDB(seed)
	primary := midas.New(baseDB(seed), opts)
	for k, spec := range traceSpecs {
		u := makeUpdate(spec, db, seed, k)
		next, err := db.ApplyToCopy(u)
		r.check(err)
		db = next
		rec := record{update: graph.Marshal(u.Insert), deletes: u.Delete}
		if _, err := primary.Maintain(u); err != nil {
			r.check(err)
		}
		var b bytes.Buffer
		r.check(midas.SaveState(&b, primary, opts))
		switch {
		case k+1 == len(traceSpecs)/2:
			h.mid = b.Bytes()
			h.midDB = db
		case k+1 > len(traceSpecs)/2:
			rec.patterns = graph.Marshal(primary.Patterns())
			rec.bundle = b.Bytes()
			h.records = append(h.records, rec)
		}
	}
	r.tracer.end(span)
	w, c := sw.stop()
	r.addCounters("setup", c0, r.readCounters())
	r.check(checkDB(primary.DB(), db))
	h.final = db
	r.sample = sample{db: db, patterns: primary.Patterns(), bundle: h.mid}
	return h, secs(w), secs(c)
}

func patternsOf(r *run, text string) []*graph.Graph {
	ps, err := graph.Unmarshal(text)
	r.check(err)
	return ps
}

// coldRestart is one follower cold start: it returns the wall and CPU
// seconds of the restore and of the catch-up, and the live heap after
// it with the follower reachable. A traced run replays the restore's
// stages on an instance's first restart.
func coldRestart(r *run, h *history, first bool) (rw, rc, cw, cc, heapMBs float64) {
	// Decode the shipped records outside the timed spans, as a follower
	// receives them.
	updates := make([]graph.Update, len(h.records))
	patterns := make([][]*graph.Graph, len(h.records))
	for i, rec := range h.records {
		ins, err := graph.Unmarshal(rec.update)
		r.check(err)
		updates[i] = graph.Update{Insert: ins, Delete: rec.deletes}
		patterns[i] = patternsOf(r, rec.patterns)
	}
	opts := options(h.seed)
	iso.ResetMemo()
	ged.ResetMemo()
	c0 := r.readCounters()
	span := r.tracer.begin("LoadState")
	sw := start()
	f, err := midas.LoadState(bytes.NewReader(h.mid))
	w, c := sw.stop()
	r.tracer.end(span)
	r.op(err == nil)
	if err != nil {
		r.check(err)
		return
	}
	f.SetWorkers(workers)
	rw, rc = secs(w), secs(c)

	// SaveState(LoadState(b)) must give b back.
	var b bytes.Buffer
	r.check(midas.SaveState(&b, f, opts))
	r.check(checkBundle(b.Bytes(), h.mid))

	got := make([][]byte, len(h.records))
	for i := range h.records {
		span := r.tracer.begin("ApplyReplicated")
		sw := start()
		rep, err := f.ApplyReplicated(context.Background(), updates[i], patterns[i])
		d := r.tracer.end(span)
		r.op(err == nil)
		r.check(err)
		save := r.tracer.begin("SaveState")
		var b bytes.Buffer
		r.check(midas.SaveState(&b, f, opts))
		ds := r.tracer.end(save)
		w, c := sw.stop()
		cw += secs(w)
		cc += secs(c)
		got[i] = b.Bytes()
		if r.traced {
			r.addReport(rep)
			r.addLayer("core.apply_replicated_s", "s", secs(d))
			r.addLayer("state.save_s", "s", secs(ds))
		}
	}
	r.addCounters("", c0, r.readCounters())
	for i, rec := range h.records {
		r.check(checkBundle(got[i], rec.bundle))
	}
	heapMBs = heapMB()
	runtime.KeepAlive(f)
	if r.traced && first {
		r.setLayer("state.bundle_bytes", "bytes", float64(len(got[len(got)-1])))
		r.traceDecode(h.mid)
		r.traceStages(h.midDB, h.seed)
	}
	return
}

// traceDecode times the state layer's decoding of a bundle apart from
// the rebuild: envelope and checksum verification plus parsing of the
// graph sections.
func (r *run) traceDecode(bundle []byte) {
	span := r.tracer.begin("state.decode")
	r.check(midas.VerifyState(bundle))
	text := string(bundle)
	if i := bytes.Index(bundle, []byte("== database ==\n")); i >= 0 {
		text = text[i+len("== database ==\n"):]
	}
	for _, sec := range bytes.Split([]byte(text), []byte("== patterns ==\n")) {
		_, err := graph.Unmarshal(string(sec))
		r.check(err)
	}
	r.addLayer("state.decode_s", "s", secs(r.tracer.end(span)))
}
