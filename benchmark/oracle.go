package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/graphlet"
	"github.com/midas-graph/midas/internal/iso"
)

// The oracles below recompute what the program answers, from the
// benchmark's own copy of the inputs and with the plain kernels
// (graphlet.Count, iso.Contains, ged.Exact), never with the engine's
// indices, memos or sampled metrics.

// checkDB compares the engine's database with the expected replay.
func checkDB(got, want *graph.Database) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("database has %d graphs, replay has %d", got.Len(), want.Len())
	}
	for _, id := range want.IDs() {
		g := got.Get(id)
		if g == nil {
			return fmt.Errorf("database lacks graph %d", id)
		}
		if g.String() != want.Get(id).String() {
			return fmt.Errorf("graph %d differs from the replay", id)
		}
	}
	return nil
}

// graphletDistribution recounts ψ over a database graph by graph.
func graphletDistribution(db *graph.Database) [graphlet.NumTypes]float64 {
	var c graphlet.Counts
	for _, g := range db.Graphs() {
		c.Add(graphlet.Count(g))
	}
	return c.Distribution()
}

func checkDistance(got, want float64) error {
	if got != want {
		return fmt.Errorf("graphlet distance %v, recomputed %v", got, want)
	}
	return nil
}

func checkGeneration(prev, got uint64) error {
	if got != prev+1 {
		return fmt.Errorf("generation %d follows %d", got, prev)
	}
	return nil
}

// connected reports whether g is connected (breadth-first search).
func connected(g *graph.Graph) bool {
	n := g.Order()
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// checkBudget verifies the served set: at most γ patterns, each
// connected with a size inside the budget, no two isomorphic.
func checkBudget(ps []*graph.Graph) error {
	if len(ps) == 0 || len(ps) > gamma {
		return fmt.Errorf("%d patterns served, budget %d", len(ps), gamma)
	}
	for i, p := range ps {
		if !connected(p) {
			return fmt.Errorf("pattern %d is not connected", p.ID)
		}
		if p.Size() < minSize || p.Size() > maxSize {
			return fmt.Errorf("pattern %d has %d edges, budget %d–%d", p.ID, p.Size(), minSize, maxSize)
		}
		for _, q := range ps[:i] {
			if p.Order() == q.Order() && p.Size() == q.Size() && iso.Contains(p, q) {
				return fmt.Errorf("patterns %d and %d are isomorphic", q.ID, p.ID)
			}
		}
	}
	return nil
}

// exactDiv is f_div of a pattern set: the minimum GED over ordered
// pairs, every one computed by exhaustive A* and checked to be exact.
func exactDiv(ps []*graph.Graph) (float64, error) {
	best := -1.0
	for i, a := range ps {
		for j, b := range ps {
			if i == j {
				continue
			}
			d, exact := ged.Exact(a, b, 0)
			if !exact {
				return 0, fmt.Errorf("GED of patterns %d and %d hit the search cap", a.ID, b.ID)
			}
			if best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 {
		best = float64(len(ps))
	}
	return best, nil
}

// labelsFit reports whether g has at least as many vertices of each
// label as q — a necessary condition for containment.
func labelsFit(q, g *graph.Graph) bool {
	need := map[string]int{}
	for _, l := range q.Labels() {
		need[l]++
	}
	for _, l := range g.Labels() {
		need[l]--
	}
	for _, n := range need {
		if n > 0 {
			return false
		}
	}
	return true
}

// bruteMatches scans every graph of db with iso.Contains and returns
// the sorted IDs of those containing q.
func bruteMatches(db *graph.Database, q *graph.Graph) []int {
	var out []int
	for _, g := range db.Graphs() {
		if labelsFit(q, g) && iso.Contains(g, q) {
			out = append(out, g.ID)
		}
	}
	sort.Ints(out)
	return out
}

// checkMatches compares a served answer with the brute-force one and
// requires the query's source graph when the database holds it.
func checkMatches(got, want []int, source int, sourceIn bool) error {
	g := append([]int(nil), got...)
	sort.Ints(g)
	if len(g) != len(want) {
		return fmt.Errorf("%d matches served, brute force finds %d", len(g), len(want))
	}
	has := false
	for i := range g {
		if g[i] != want[i] {
			return fmt.Errorf("match %d served, brute force has %d", g[i], want[i])
		}
		has = has || g[i] == source
	}
	if sourceIn && !has {
		return fmt.Errorf("source graph %d missing from the matches", source)
	}
	return nil
}

func checkBundle(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("bundle of %d bytes differs from the expected %d bytes", len(got), len(want))
	}
	return nil
}

// divAudit holds a fixed input, independent of --seed, on which the
// engine's self-reported f_div overstates the exact one: 20 AIDS-like
// graphs at seed 5 (reported 4, exact 3). Index.TighterGED's bound
// GED_l + RelaxedEdges exceeds the exact GED on some pattern pairs, and
// catapult.Metrics.Div prunes the pair that holds the minimum.
type divAudit struct {
	eng   *midas.Engine
	exact float64
}

const (
	auditGraphs = 20
	auditSeed   = 5
)

func newDivAudit(r *run) *divAudit {
	eng := midas.New(dataset.AIDSLike().GenerateDB(auditGraphs, auditSeed), options(auditSeed))
	d, err := exactDiv(eng.Patterns())
	r.check(err)
	return &divAudit{eng: eng, exact: d}
}

// audit is one audit operation: it passes when the reported f_div
// equals the exact one.
func (a *divAudit) audit() bool { return a.eng.Quality().Div == a.exact }

// sample is a piece of real run output on which proveOracles shows
// that every oracle rejects a corrupted copy.
type sample struct {
	db       *graph.Database
	patterns []*graph.Graph
	bundle   []byte
}

// proveOracles feeds each oracle a correct input, which it must accept,
// and a corrupted one, which it must reject: a dropped match, a flipped
// bundle byte, a perturbed distance, a pattern over budget, a missing
// graph and a skipped generation.
func proveOracles(r *run) {
	s := r.sample
	if s.db == nil || s.db.Len() < 2 || len(s.bundle) == 0 {
		r.check(errors.New("no sample recorded for the oracle proofs"))
		return
	}
	prove := func(name string, good, bad error) {
		if good != nil {
			r.check(fmt.Errorf("oracle %s rejects a correct input: %w", name, good))
		}
		if bad == nil {
			r.check(fmt.Errorf("oracle %s accepts a corrupted input", name))
		}
	}
	src := s.db.Graphs()[0]
	q := drawQueries([]*graph.Graph{src}, 1, 1)[0]
	want := bruteMatches(s.db, q.g)
	prove("matches", checkMatches(want, want, src.ID, true), checkMatches(want[1:], want, src.ID, true))

	flipped := append([]byte(nil), s.bundle...)
	flipped[len(flipped)/2] ^= 1
	prove("bundle", checkBundle(s.bundle, s.bundle), checkBundle(flipped, s.bundle))

	after, err := s.db.ApplyToCopy(graph.Update{Delete: []int{src.ID}})
	r.check(err)
	d := graphlet.Distance(graphletDistribution(s.db), graphletDistribution(after))
	prove("distance", checkDistance(d, d), checkDistance(d+1e-12, d))

	big := graph.Path(1<<20, "C", "C", "C", "C", "C", "C", "C", "C")
	prove("budget", checkBudget(s.patterns), checkBudget(append(append([]*graph.Graph(nil), s.patterns...), big)))
	prove("database", checkDB(s.db, s.db), checkDB(after, s.db))
	prove("generation", checkGeneration(4, 5), checkGeneration(4, 6))
}
