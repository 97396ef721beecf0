// Command midas-benchmark measures the MIDAS stack end to end through
// its public surface — midas.New, LoadState/SaveState,
// Engine.ApplyReplicated and the panel http.Handler called in-process —
// and checks every output against computations made apart from the
// program before it reports a number.
//
//	go run . --workload evolve|restart|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// and the recorded spans are written to .bench_build/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries one workload execution: the operation tally, the checks
// and both metric families.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tracer  *tracer

	attempted, failed int
	errs              []string

	e2e   map[string]metric
	layer map[string]metric
	// layerCount is how many instances the averaged quality metrics
	// cover so far.
	layerCount int
	// sample is real output the oracle proofs corrupt.
	sample sample
	// sums names the per-layer metrics accumulated by addLayer.
	sums map[string]bool
}

func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records an oracle verdict: a failed check makes the run
// incorrect (it is not a failed operation).
func (r *run) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err.Error())
		logf("CHECK FAILED: %v", err)
	}
}

func (r *run) setE2E(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }

func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// setFigure records a workload figure that is not an end-to-end
// metric: a traced run reports it with the per-layer metrics, and every
// run logs it to standard error.
func (r *run) setFigure(name, unit string, v float64) {
	r.setLayer(name, unit, v)
	logf("figure %s = %.6g %s", name, v, unit)
}

func (r *run) addLayer(name, unit string, v float64) {
	m := r.layer[name]
	r.layer[name] = metric{m.Value + v, unit}
	if r.sums == nil {
		r.sums = map[string]bool{}
	}
	r.sums[name] = true
}

// Classes of accumulated per-layer metrics, by the unit of work they
// are divided by when a workload finishes.
const (
	perSetup = iota // set-up counters and the traced stage replays
	perBatch        // maintenance reports, publish and queue wait
	perOp           // kernel, memo, runtime, search and panel counters
)

func layerClass(name string) int {
	switch {
	case strings.HasPrefix(name, "setup."), name == "catapult.select_s", name == "state.decode_s",
		name == "tree.mine_s", name == "cluster.build_s", name == "csg.build_s",
		name == "index.build_s", name == "graphlet.count_s":
		return perSetup
	case strings.HasPrefix(name, "core."), strings.HasPrefix(name, "snapshot."),
		name == "state.save_s", name == "quality.div_overstated":
		return perBatch
	}
	return perOp
}

// perUnit divides the accumulated per-layer metrics of one class by n,
// so that traced figures read per set-up, per trace or restart, or per
// query rather than per run.
func (r *run) perUnit(class int, n float64) {
	for name := range r.sums {
		if layerClass(name) == class && n > 0 {
			m := r.layer[name]
			r.layer[name] = metric{m.Value / n, m.Unit}
		}
	}
}

var workloads = map[string]func(*run){
	"evolve":  runEvolve,
	"restart": runRestart,
	"serve":   runServe,
}

func main() {
	workload := flag.String("workload", "", "evolve | restart | serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 8, "minimum measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "usage: midas-benchmark --workload evolve|restart|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
	}
	if r.traced {
		r.tracer = newTracer()
	}
	fn(r)
	proveOracles(r)

	metrics := r.e2e
	if r.traced {
		metrics = r.layer
		for name, m := range r.e2e {
			logf("traced end-to-end %s = %.6g %s", name, m.Value, m.Unit)
		}
		path := fmt.Sprintf(".bench_build/spans-%s-%d.json", *workload, *seed)
		if err := r.tracer.write(path); err != nil {
			logf("writing spans: %v", err)
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

var processStart = time.Now()

func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: [%6.1fs] "+format+"\n",
		append([]interface{}{time.Since(processStart).Seconds()}, args...)...)
}

// cpuNow returns the process CPU time (user + system, all threads).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch times one phase in wall clock and process CPU.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func start() stopwatch { return stopwatch{time.Now(), cpuNow()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}

// heapMB forces a collection and returns the live heap in MB; the
// caller keeps whatever must count as live reachable across the call.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median averages the two middle values of an even-sized sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// geomean summarises one figure over several databases: their costs
// are right-skewed, and a uniform speed-up of x shows as x in it.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

func secs(d time.Duration) float64 { return d.Seconds() }
