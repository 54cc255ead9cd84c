// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the real entry points — the internal/serve
// HTTP handler on one node, the same handler behind an internal/fleet
// router, and the magma.Solver library API — checks every returned
// schedule, and prints its metrics. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-search --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 the run is traced and the
// metrics are the per-layer ones. The exit code is 0 only when every
// output check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"magma"
	"magma/internal/serve"
)

// metricDef is one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"max_rate_rps", "1/s", "higher"},
	{"success_ratio", "ratio", "higher"},
	{"sweep_s", "s", "lower"},
	{"mapping_gflops", "GFLOP/s", "higher"},
	{"retained_heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.decode_us", "us", "lower"},
		{"serve.encode_us", "us", "lower"},
		{"serve.handler_self_ms", "ms", "lower"},
		{"serve.coalesced", "count", "higher"},
		{"serve.failed", "count", "lower"},
		{"fleet.route_self_ms", "ms", "lower"},
		{"fleet.fanout_groups", "count", "lower"},
		{"fleet.retries", "count", "lower"},
		{"fleet.shard_share_max", "ratio", "lower"},
		{"workload.generate_us", "us", "lower"},
		{"engine.table_build_ms", "ms", "lower"},
		{"engine.lookup_us", "us", "lower"},
		{"engine.tables_built", "count", "lower"},
		{"engine.tables_reused", "count", "higher"},
		{"engine.problems_evicted", "count", "lower"},
		{"engine.pools_reused", "count", "higher"},
		{"engine.problems_asked", "count", "lower"},
		{"m3e.ask_us", "us", "lower"},
		{"m3e.fingerprint_us", "us", "lower"},
		{"m3e.bound_us", "us", "lower"},
		{"m3e.simulate_us", "us", "lower"},
		{"m3e.tell_us", "us", "lower"},
		{"m3e.generations", "count", "lower"},
		{"m3e.genomes", "count", "lower"},
		{"m3e.misses", "count", "lower"},
		{"m3e.hits", "count", "higher"},
		{"m3e.cross_hits", "count", "higher"},
		{"m3e.deduped", "count", "higher"},
		{"m3e.hit_rate", "ratio", "higher"},
		{"m3e.cross_hit_rate", "ratio", "higher"},
		{"m3e.fast_fp_rate", "ratio", "higher"},
		{"m3e.prune_rate", "ratio", "higher"},
		{"encoding.decode_ns", "ns", "lower"},
		{"encoding.fingerprint_ns", "ns", "lower"},
		{"sim.run_us", "us", "lower"},
		{"sim.validate_us", "us", "lower"},
		{"sim.bounds_us", "us", "lower"},
	}
	for _, name := range magma.MapperNames() {
		defs = append(defs, metricDef{"opt." + slug(name) + ".search_s", "s", "lower"})
	}
	for _, name := range magma.MapperNames() {
		if !isHeuristic(name) {
			defs = append(defs, metricDef{"opt." + slug(name) + ".tell_share", "ratio", "lower"})
		}
	}
	return append(defs,
		metricDef{"stats.symeigen_ms", "ms", "lower"},
		metricDef{"nn.forward_backward_us", "us", "lower"},
		metricDef{"persist.snapshot_ms", "ms", "lower"},
		metricDef{"persist.snapshot_mb", "MB", "lower"},
		metricDef{"persist.snapshots", "count", "higher"},
		metricDef{"load.sent", "count", "higher"},
		metricDef{"load.completed", "count", "higher"},
		metricDef{"load.lag_p95_ms", "ms", "lower"},
		metricDef{"trace.overhead_p50_ms", "ms", "lower"},
		metricDef{"trace.spans", "count", "higher"},
	)
}()

// slug turns a mapper name into a metric-name segment ("RL A2C" →
// "rl-a2c").
func slug(name string) string { return strings.ToLower(strings.ReplaceAll(name, " ", "-")) }

func isHeuristic(name string) bool { return name == "Herald-like" || name == "AI-MT-like" }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	conns    int
}

// report is what a workload run produces.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	failures  []string
	digest    string
	notes     []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config) (*report, error){
	"cold-search":  runColdSearch,
	"warm-fleet":   runWarmFleet,
	"table4-sweep": runTable4,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-search, warm-fleet or table4-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload cold-search|warm-fleet|table4-sweep, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	// The load generator uses at most one goroutine and one connection
	// per CPU.
	cfg.conns = runtime.NumCPU()

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if !emit(os.Stdout, cfg, rep) {
		os.Exit(1)
	}
}

// emit prints the human-readable report and the final JSON line, and
// reports whether the run was correct.
func emit(w *os.File, cfg config, rep *report) bool {
	correct := len(rep.failures) == 0 && rep.failed == 0
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  results digest %s (queues and fitness bits of every returned schedule, in order)\n", rep.digest)
	fmt.Fprintf(w, "  mapping_gflops is a simulated figure from an unvalidated model: the repo holds no reference hardware results, so no error figure is given\n")
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !cfg.trace {
			correct = false
			fmt.Fprintf(w, "  MISSING METRIC %s\n", d.Name)
		}
		switch {
		case cfg.trace && math.IsNaN(v):
			// A layer with no samples in this run, e.g. no snapshot
			// finished in a very short run: not measured.
			fmt.Fprintf(w, "  %s: no samples\n", d.Name)
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			correct = false
			fmt.Fprintf(w, "  NON-FINITE METRIC %s = %v\n", d.Name, v)
			v = -1
		}
		fmt.Fprintf(w, "  %-28s %16.6f %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if !cfg.trace {
		errRatio := 0.0
		if rep.attempted > 0 {
			errRatio = float64(rep.failed) / float64(rep.attempted)
		}
		fmt.Fprintf(w, "  %-28s %16.6f ratio (non-200 responses and failed checks / requests attempted)\n", "error_ratio", errRatio)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct
}

// solverOptions and serveConfig mirror cmd/serve's flag defaults, so the
// servers here run the configuration a server started without flags
// runs.
func solverOptions() magma.SolverOptions { return magma.SolverOptions{} }

func serveConfig() serve.Config { return serve.Config{JobTimeout: 10 * time.Minute} }

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// medianSetup runs setup reps times, keeping the last result and
// tearing down the others, and returns the median set-up time. Every
// time is noted in the report, so the spread of a single set-up can be
// read from the same runs.
func medianSetup[T any](rep *report, reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return last, 0, err
		}
		if i < reps-1 {
			teardown(v)
		}
		last = v
	}
	rep.notef("set-up times (s, in order): %v", times)
	return last, median(times), nil
}
