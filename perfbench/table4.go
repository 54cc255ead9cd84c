package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"magma"
	"magma/internal/m3e"
	"magma/internal/serve"
)

// table4-sweep: a closed loop with one client through the library API.
// Every registered mapper runs once per sweep, in Table IV order, on one
// fixed group-100 Mix problem on S2 at its default bandwidth, on one
// Solver with the server's cache and bound settings. It is the only
// workload where CMA's eigen-decomposition, the RL policy networks and
// the non-MAGMA mappers do the work.
const (
	// table4ProblemSeed fixes the problem, so sweep_s and mapping_gflops
	// compare across seeds; --seed draws every mapper's search seed.
	table4ProblemSeed = 7
	// table4SweepS is the nominal sweep length the sweep count is sized
	// by: --seconds / table4SweepS sweeps, at least one.
	table4SweepS   = 6
	table4SetupRep = 21
)

// table4Budgets holds the reduced budgets of the slow mappers, each
// sized to a few seconds; every other mapper runs at the paper budget.
// At a few hundred samples these mappers' outcome and run time are
// dominated by their seed, so they run as fixed probes: their seeds
// depend only on the sweep, not on --seed.
var table4Budgets = map[string]int{"CMA": 200, "RL A2C": 40, "RL PPO2": 20}

// table4Problem is what the sweeps run on: the problem, the mapper list
// and one fresh Solver per sweep, so every sweep does the same cold work.
type table4Problem struct {
	group    magma.Group
	platform magma.Platform
	mappers  []string
	spec     serve.GenerateSpec
	solvers  []*magma.Solver
}

func newTable4Problem(sweeps int) (table4Problem, error) {
	spec := serve.GenerateSpec{Task: "Mix", NumJobs: 100, GroupSize: 100, Seed: table4ProblemSeed}
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{Task: magma.Mix, NumJobs: spec.NumJobs, GroupSize: spec.GroupSize, Seed: spec.Seed})
	if err != nil {
		return table4Problem{}, err
	}
	pf, err := magma.PlatformBySetting("S2")
	if err != nil {
		return table4Problem{}, err
	}
	tp := table4Problem{group: wl.Groups[0], platform: pf, mappers: magma.MapperNames(), spec: spec}
	for i := 0; i < sweeps; i++ {
		tp.solvers = append(tp.solvers, magma.NewSolver(solverOptions()))
	}
	return tp, nil
}

func runTable4(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	sweeps := int(cfg.seconds / table4SweepS)
	if sweeps < 1 {
		sweeps = 1
	}
	tp, setupS, err := medianSetup(rep, table4SetupRep, func() (table4Problem, error) {
		return newTable4Problem(sweeps)
	}, func(table4Problem) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	prob, err := m3e.NewProblem(tp.group, tp.platform, m3e.Throughput)
	if err != nil {
		return nil, err
	}
	sc := serveConfig()
	r := rand.New(rand.NewSource(cfg.seed))
	chk := newChecker()
	res := newResults()
	var (
		latMS       []float64
		sweepS      []float64
		searchS     = map[string][]float64{}
		phases      = map[string]m3e.PhaseTimings{}
		allPhases   m3e.PhaseTimings
		cache       m3e.CacheStats
		samples     []sample
		engineStats [4]float64
		heaps       []float64
	)
	for s, solver := range tp.solvers {
		root := span{ID: rec.newID(), Req: int64(s + 1), Name: "table4.sweep", Start: time.Now()}
		for i, name := range tp.mappers {
			seed := r.Int63n(1 << 30)
			if _, probe := table4Budgets[name]; probe {
				seed = int64(1000*s + i)
			}
			opts := magma.Options{
				Mapper: name,
				Budget: table4Budgets[name],
				Seed:   seed,
				// The server's settings: the cache is on unless a request
				// turns it off, and the bound follows its default.
				Cache: true,
				Bound: sc.DefaultBound,
			}
			var sched magma.Schedule
			var err error
			sp := rec.record("opt."+slug(name), int64(s+1), root.ID, func() {
				sched, err = solver.Optimize(tp.group, tp.platform, opts)
			})
			rep.attempted++
			label := fmt.Sprintf("sweep %d %s", s, name)
			if err != nil {
				rep.failed++
				chk.failf("%s: %v", label, err)
				continue
			}
			latMS = append(latMS, ms(sp.Dur()))
			searchS[name] = append(searchS[name], sp.Dur().Seconds())
			if !chk.librarySchedule(label, prob, sched) {
				rep.failed++
			}
			res.add(sched.Mapping.Queues, sched.Fitness, sched.ThroughputGFLOPs)
			p := phases[name]
			p.Add(sched.Phases)
			phases[name] = p
			allPhases.Add(sched.Phases)
			cache.Add(sched.Cache)
			if s == 0 {
				samples = append(samples, sample{group: tp.group, platform: tp.platform, genome: sched.Genome, mapping: sched.Mapping})
			}
		}
		root.End = time.Now()
		rec.add(root)
		sweepS = append(sweepS, root.Dur().Seconds())
		st := solver.Stats()
		engineStats[0] += float64(st.TablesBuilt)
		engineStats[1] += float64(st.TablesReused)
		engineStats[2] += float64(st.ProblemsEvicted)
		engineStats[3] += float64(st.PoolsReused)
		// The live heap with this sweep's Solver (and no earlier one) alive.
		tp.solvers[s] = nil
		heaps = append(heaps, heapMB())
		runtime.KeepAlive(solver)
	}

	var total float64
	for _, v := range sweepS {
		total += v
	}
	rep.e2e["sweep_s"] = median(sweepS)
	rep.e2e["latency_p50_ms"], _ = percentile(latMS, 0.50)
	p95, beyond := percentile(latMS, 0.95)
	rep.e2e["latency_p95_ms"] = p95
	rep.e2e["max_rate_rps"] = float64(len(latMS)) / total
	rep.e2e["success_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.e2e["mapping_gflops"] = res.GeomeanGFLOPs()
	rep.failures = append(rep.failures, chk.failures...)
	rep.digest = res.Digest()
	rep.notef("%d sweeps of %d mappers; %d searches, closed loop, one client; latency percentiles are per search call (p95 has %d samples beyond it)",
		sweeps, len(tp.mappers), len(latMS), beyond)
	for _, name := range tp.mappers {
		rep.notef("  %-12s median %.3fs (budget %d)", name, median(searchS[name]), budgetOf(name))
	}

	if cfg.trace {
		out := rep.layer
		for _, name := range tp.mappers {
			out["opt."+slug(name)+".search_s"] = median(searchS[name])
			if p := phases[name]; !isHeuristic(name) {
				if sum := p.AskNs + p.FingerprintNs + p.BoundNs + p.SimulateNs + p.TellNs; sum > 0 {
					out["opt."+slug(name)+".tell_share"] = float64(p.TellNs) / float64(sum)
				}
			}
		}
		phaseLayers(allPhases, out)
		cacheLayers(cache, out)
		out["engine.tables_built"] = engineStats[0]
		out["engine.tables_reused"] = engineStats[1]
		out["engine.problems_evicted"] = engineStats[2]
		out["engine.pools_reused"] = engineStats[3]
		out["engine.problems_asked"] = 1
		out["load.sent"] = float64(rep.attempted)
		out["load.completed"] = float64(len(latMS))
		// Sweeps differ in their search seeds, so traced and untraced
		// sweeps would not compare; a search call's tracing cost is the
		// one span recorded around it, timed directly.
		var probe recorder
		out["trace.overhead_p50_ms"] = ms(perCall(1000, func() { probe.record("probe", 0, 0, func() {}) }))
		if err := directLayers(rec, samples, out); err != nil {
			return nil, err
		}
		if err := generateLayer(rec, []serve.GenerateSpec{tp.spec}, out); err != nil {
			return nil, err
		}
		if err := symEigenLayer(rec, 2*len(tp.group.Jobs), cfg.seed, out); err != nil {
			return nil, err
		}
		if err := nnLayer(rec, tp.platform.NumAccels(), cfg.seed, out); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, rec, rep); err != nil {
			return nil, err
		}
	}
	rep.e2e["retained_heap_mb"] = median(heaps)
	return rep, nil
}

// budgetOf is the sampling budget a mapper runs at in the sweep (the
// heuristics take none).
func budgetOf(name string) int {
	if isHeuristic(name) {
		return 0
	}
	if b, ok := table4Budgets[name]; ok {
		return b
	}
	return m3e.DefaultBudget
}
