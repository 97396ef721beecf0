package main

import (
	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

// The inputs follow the `small` scale of internal/experiments: |D| =
// 100 AIDS-like graphs, budget γ = 10 with pattern sizes 3–6, sup_min
// 0.4, ε 0.01, 40 walks, scov sample 80, fine-cluster size 14.
const (
	baseGraphs = 100
	gamma      = 10
	minSize    = 3
	maxSize    = 6
	// workers is the maintenance fan-out (nproc on the reference box
	// and the midas-serve default).
	workers = 2
	// queryMin and queryMax bound query sizes in edges.
	queryMin = 4
	queryMax = 12
	// formulationQueries is the size of the query list the formulation
	// steps are averaged over.
	formulationQueries = 200
)

// options returns the engine options for one input instance.
func options(seed int64) midas.Options {
	return midas.Options{
		Budget:         midas.Budget{MinSize: minSize, MaxSize: maxSize, Count: gamma},
		SupMin:         0.4,
		Epsilon:        0.01,
		Kappa:          0.1,
		Lambda:         0.1,
		Walks:          40,
		SampleSize:     80,
		ClusterMaxSize: 14,
		Seed:           seed,
		Workers:        workers,
	}
}

// instanceSeed derives the seed of input instance i of a run from the
// run's --seed. A run measures several independent databases so that
// its figures describe the input distribution rather than one draw.
func instanceSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z % (1 << 31))
}

// baseDB generates the instance's initial database.
func baseDB(seed int64) *graph.Database {
	return dataset.AIDSLike().GenerateDB(baseGraphs, seed)
}

// batchSpec is one batch of the maintenance trace.
type batchSpec struct {
	name                 string
	aids, boronic, erase int
}

// traceSpecs is the evolve trace: AIDS-like insertions and random
// deletions move the graphlet distribution little (minor batches); the
// two boronic-ester insertions move it past ε (major batches, with
// candidate generation and swaps).
var traceSpecs = []batchSpec{
	{"+10 aids", 10, 0, 0},
	{"-5", 0, 0, 5},
	{"+25 boronic", 0, 25, 0},
	{"+5 aids", 5, 0, 0},
	{"-5", 0, 0, 5},
	{"+10 aids", 10, 0, 0},
	{"+5 aids -5", 5, 0, 5},
	{"-10", 0, 0, 10},
	{"+5 aids -5", 5, 0, 5},
	{"+30 boronic", 0, 30, 0},
	{"+5 aids", 5, 0, 0},
	{"-5", 0, 0, 5},
}

// busySpec is the serve workload's major batch, the same every run.
var busySpec = batchSpec{"+40 boronic", 0, 40, 0}

// makeUpdate draws batch k of an instance against db, the benchmark's
// own copy of the database before the batch (never the engine's).
// Inserted graphs get fresh IDs from db.NextID, so the serving
// pipeline's ID remapping leaves them alone.
func makeUpdate(spec batchSpec, db *graph.Database, seed int64, k int) graph.Update {
	var u graph.Update
	s := seed*1000 + int64(k)*10
	if spec.erase > 0 {
		u.Delete = dataset.RandomDeletion(db, spec.erase, s+1)
	}
	next := db.NextID()
	if spec.aids > 0 {
		u.Insert = append(u.Insert, dataset.AIDSLike().Generate(spec.aids, next, s+2)...)
		next += spec.aids
	}
	if spec.boronic > 0 {
		u.Insert = append(u.Insert, dataset.BoronicEsters().Generate(spec.boronic, next, s+3)...)
	}
	return u
}

// query is one subgraph query with the graph it was drawn from.
type query struct {
	g      *graph.Graph
	text   string
	source int
}

// drawQueries draws n queries of 4–12 edges, one per source graph
// picked round-robin from sources, remembering each query's source.
func drawQueries(sources []*graph.Graph, n int, seed int64) []query {
	out := make([]query, 0, n)
	for i := 0; i < n && len(sources) > 0; i++ {
		src := sources[(i*7919)%len(sources)]
		qs := dataset.Queries([]*graph.Graph{src}, 1, queryMin, queryMax, seed+int64(i))
		if len(qs) == 0 {
			continue
		}
		q := qs[0]
		q.ID = i
		out = append(out, query{g: q, text: graph.Marshal([]*graph.Graph{q}), source: src.ID})
	}
	return out
}

// balancedQueries draws half the queries from inserted and half from
// the rest of db (the balanced workload of §7.1).
func balancedQueries(db *graph.Database, inserted []*graph.Graph, n int, seed int64) []query {
	isNew := make(map[int]bool, len(inserted))
	for _, g := range inserted {
		isNew[g.ID] = true
	}
	var rest []*graph.Graph
	for _, g := range db.Graphs() {
		if !isNew[g.ID] {
			rest = append(rest, g)
		}
	}
	qs := drawQueries(inserted, n/2, seed)
	return append(qs, drawQueries(rest, n-n/2, seed+500000)...)
}
