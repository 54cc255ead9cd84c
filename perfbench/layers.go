package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"magma"
	"magma/internal/analyzer"
	"magma/internal/encoding"
	"magma/internal/engine"
	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/nn"
	"magma/internal/rng"
	"magma/internal/serve"
	"magma/internal/sim"
	"magma/internal/stats"
)

// sample is one returned schedule with the inputs it was computed on:
// the material the direct per-layer calls are timed on.
type sample struct {
	group    magma.Group
	platform magma.Platform
	genome   encoding.Genome
	mapping  sim.Mapping
}

// replayStats collects what replaying captured request bodies measured.
type replayStats struct {
	decodeUS, encodeUS, searchMS, handlerSelfMS []float64
	phases                                      m3e.PhaseTimings
	samples                                     []sample
	replayed                                    int
}

// streamOptions turns a decoded request into the options the server's
// handler would run it with: the cache is on unless the request says
// otherwise, and the bound follows the server's default, as in
// internal/serve. The benchmark's bodies set neither.
func streamOptions(req *serve.OptimizeRequest, cfg serve.Config) (magma.StreamOptions, error) {
	if req.Options.Objective != "" && req.Options.Objective != "throughput" {
		return magma.StreamOptions{}, fmt.Errorf("replay supports the throughput objective only, got %q", req.Options.Objective)
	}
	cache := true
	if req.Options.Cache != nil {
		cache = *req.Options.Cache
	}
	bound := cfg.DefaultBound && cache
	if req.Options.Bound != nil {
		bound = *req.Options.Bound
	}
	return magma.StreamOptions{
		Mapper:          req.Options.Mapper,
		Objective:       magma.Throughput,
		BudgetPerGroup:  req.Options.BudgetPerGroup,
		Seed:            req.Options.Seed,
		Workers:         req.Options.Workers,
		Cache:           cache,
		WarmStart:       req.Options.WarmStart,
		SharedWarm:      req.Options.SharedWarm,
		EffectiveBudget: req.Options.EffectiveBudget,
		Bound:           bound,
	}, nil
}

// replay runs captured shard bodies in capture order through the public
// calls the /optimize handler makes, on a fresh Solver: JSON decode and
// serve.ResolveTarget, Solver.OptimizeStreamCtx, sim.Validator over every
// schedule, and JSON encode of the reply. Bodies captured during set-up
// are replayed untimed first, so the timed replays meet the Solver in
// the state the live shard had. At most limit timed replays run.
func replay(ctx context.Context, rec *recorder, caps []capture, limit int, cfg serve.Config, out *replayStats) error {
	solver := magma.NewSolver(solverOptions())
	var v sim.Validator
	timed := 0
	for _, c := range caps {
		if !c.Warm {
			if timed >= limit {
				continue
			}
			timed++
		}
		// Set-up replays only rebuild the shard's state: no spans.
		rec := rec
		if c.Warm {
			rec = nil
		}
		root := span{ID: rec.newID(), Parent: c.SpanID, Req: c.Req, Name: "serve.replay", Start: time.Now()}
		var (
			req  serve.OptimizeRequest
			wl   magma.Workload
			pf   magma.Platform
			opts magma.StreamOptions
			res  magma.StreamResult
			err  error
		)
		dec := rec.record("serve.decode", c.Req, root.ID, func() {
			d := json.NewDecoder(bytes.NewReader(c.Body))
			d.DisallowUnknownFields()
			if err = d.Decode(&req); err == nil {
				wl, pf, err = serve.ResolveTarget(&req)
			}
		})
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		if opts, err = streamOptions(&req, cfg); err != nil {
			return err
		}
		search := rec.record("magma.OptimizeStreamCtx", c.Req, root.ID, func() {
			res, err = solver.OptimizeStreamCtx(ctx, wl, pf, opts)
		})
		if err != nil {
			return fmt.Errorf("replay search: %w", err)
		}
		rec.record("sim.Validator", c.Req, root.ID, func() {
			for gi, s := range res.Schedules {
				if err == nil {
					err = v.Validate(s.Mapping, len(wl.Groups[gi].Jobs), pf.NumAccels())
				}
			}
		})
		if err != nil {
			return fmt.Errorf("replay validate: %w", err)
		}
		enc := rec.record("serve.encode", c.Req, root.ID, func() {
			err = encodeResponse(wl, pf, res)
		})
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		root.End = time.Now()
		if c.Warm {
			continue
		}
		rec.add(root)
		out.replayed++
		out.decodeUS = append(out.decodeUS, float64(dec.Dur())/1e3)
		out.encodeUS = append(out.encodeUS, float64(enc.Dur())/1e3)
		out.searchMS = append(out.searchMS, ms(search.Dur()))
		out.handlerSelfMS = append(out.handlerSelfMS, ms(c.Handler-search.Dur()))
		out.phases.Add(res.Phases)
		for gi, s := range res.Schedules {
			out.samples = append(out.samples, sample{group: wl.Groups[gi], platform: pf, genome: s.Genome, mapping: s.Mapping})
		}
	}
	return nil
}

// encodeResponse marshals the reply the handler would write for res,
// with the handler's indentation.
func encodeResponse(wl magma.Workload, pf magma.Platform, res magma.StreamResult) error {
	resp := serve.OptimizeResponse{
		Workload:         wl.Name,
		Platform:         pf.String(),
		TotalGFLOPs:      res.TotalGFLOPs,
		TotalSeconds:     res.TotalSeconds,
		ThroughputGFLOPs: res.ThroughputGFLOPs,
		Cache:            serve.CacheJSONOf(res.Cache),
		Partial:          res.Partial,
	}
	for gi, s := range res.Schedules {
		resp.Groups = append(resp.Groups, serve.GroupSchedule{
			Index: gi, Mapper: s.Mapper, Fitness: s.Fitness,
			ThroughputGFLOPs: s.ThroughputGFLOPs, MakespanCycles: s.MakespanCycles,
			EnergyUnits: s.EnergyUnits, Queues: s.Mapping.Queues,
		})
	}
	var buf bytes.Buffer
	e := json.NewEncoder(&buf)
	e.SetIndent("", "  ")
	return e.Encode(resp)
}

// perCall times fn over reps calls and returns the mean time per call.
func perCall(reps int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(reps)
}

// directLayers times single layers by calling their public functions on
// the captured samples: analyzer.Build per distinct problem, a repeat
// engine.Problem lookup, encoding.DecodeInto and FingerprintInto per
// returned genome, sim.Simulator.Run, sim.Validator and the analytical
// lower bound per returned mapping. Each batch is also recorded as a
// span.
func directLayers(rec *recorder, samples []sample, out map[string]float64) error {
	if len(samples) == 0 {
		return nil
	}
	type pkey struct{ a, b uint64 }
	var (
		builds   []float64
		lookups  []float64
		decodes  []float64
		fps      []float64
		runs     []float64
		vals     []float64
		bounds   []float64
		seen     = map[pkey]*analyzer.Table{}
		eng      = engine.New(engine.Config{})
		simu     = sim.NewSimulator(sim.Options{})
		v        sim.Validator
		scratch  sim.Mapping
		firstErr error
	)
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	rec.record("direct.layers", 0, 0, func() {
		for _, s := range samples {
			id := encoding.TableIdentity(s.group, s.platform)
			k := pkey{id.A, id.B}
			tab, ok := seen[k]
			if !ok {
				var err error
				start := time.Now()
				tab, err = analyzer.Build(s.group, s.platform)
				builds = append(builds, ms(time.Since(start)))
				keep(err)
				if err != nil {
					continue
				}
				seen[k] = tab
				_, err = eng.Problem(s.group, s.platform, m3e.Throughput)
				keep(err)
				lookups = append(lookups, float64(perCall(20, func() {
					_, err := eng.Problem(s.group, s.platform, m3e.Throughput)
					keep(err)
				}))/1e3)
			}
			nAccels := s.platform.NumAccels()
			if s.genome.NumJobs() > 0 {
				decodes = append(decodes, float64(perCall(200, func() { encoding.DecodeInto(s.genome, nAccels, &scratch) })))
				fps = append(fps, float64(perCall(200, func() { s.genome.FingerprintInto(nAccels, &scratch) })))
			}
			runs = append(runs, float64(perCall(20, func() {
				_, err := simu.Run(tab, s.mapping)
				keep(err)
			}))/1e3)
			vals = append(vals, float64(perCall(200, func() {
				keep(v.Validate(s.mapping, len(s.group.Jobs), nAccels))
			}))/1e3)
			b := sim.NewBounds(tab)
			cb := make(sim.CoreBounds, nAccels)
			m := s.mapping
			bounds = append(bounds, float64(perCall(200, func() {
				b.CoresInto(cb, &m)
				_ = b.LowerBound(cb)
			}))/1e3)
		}
	})
	out["engine.table_build_ms"] = median(builds)
	out["engine.lookup_us"] = median(lookups)
	out["encoding.decode_ns"] = median(decodes)
	out["encoding.fingerprint_ns"] = median(fps)
	out["sim.run_us"] = median(runs)
	out["sim.validate_us"] = median(vals)
	out["sim.bounds_us"] = median(bounds)
	return firstErr
}

// phaseLayers turns summed search phases into per-generation times.
func phaseLayers(p m3e.PhaseTimings, out map[string]float64) {
	out["m3e.generations"] = float64(p.Generations)
	if p.Generations == 0 {
		return
	}
	per := func(ns int64) float64 { return float64(ns) / float64(p.Generations) / 1e3 }
	out["m3e.ask_us"] = per(p.AskNs)
	out["m3e.fingerprint_us"] = per(p.FingerprintNs)
	out["m3e.bound_us"] = per(p.BoundNs)
	out["m3e.simulate_us"] = per(p.SimulateNs)
	out["m3e.tell_us"] = per(p.TellNs)
}

// cacheLayers reports the fitness-cache counters with their base
// (m3e.genomes) and the ratios over it.
func cacheLayers(c m3e.CacheStats, out map[string]float64) {
	out["m3e.genomes"] = float64(c.Hits + c.Deduped + c.Misses)
	out["m3e.misses"] = float64(c.Misses)
	out["m3e.hits"] = float64(c.Hits)
	out["m3e.cross_hits"] = float64(c.CrossHits)
	out["m3e.deduped"] = float64(c.Deduped)
	out["m3e.hit_rate"] = c.HitRate()
	out["m3e.cross_hit_rate"] = c.CrossHitRate()
	out["m3e.fast_fp_rate"] = c.FastFPRate()
	out["m3e.prune_rate"] = c.BoundPruneRate()
}

// engineLayers sums the live Solvers' reuse counters.
func engineLayers(solvers []*magma.Solver, out map[string]float64) {
	var built, reused, evicted, pools float64
	for _, s := range solvers {
		st := s.Stats()
		built += float64(st.TablesBuilt)
		reused += float64(st.TablesReused)
		evicted += float64(st.ProblemsEvicted)
		pools += float64(st.PoolsReused)
	}
	out["engine.tables_built"] = built
	out["engine.tables_reused"] = reused
	out["engine.problems_evicted"] = evicted
	out["engine.pools_reused"] = pools
}

// generateLayer times workload generation for each request's generator
// spec, repeats included, and reports the median per request.
func generateLayer(rec *recorder, specs []serve.GenerateSpec, out map[string]float64) error {
	var times []float64
	var firstErr error
	rec.record("workload.Generate", 0, 0, func() {
		for _, g := range specs {
			task, err := models.ParseTask(g.Task)
			if err == nil {
				start := time.Now()
				_, err = magma.GenerateWorkload(magma.WorkloadConfig{Task: task, NumJobs: g.NumJobs, GroupSize: g.GroupSize, Seed: g.Seed})
				times = append(times, float64(time.Since(start))/1e3)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	out["workload.generate_us"] = median(times)
	return firstErr
}

// symEigenLayer times stats.SymEigen on a random symmetric positive
// definite n×n matrix, the covariance shape CMA decomposes.
func symEigenLayer(rec *recorder, n int, seed int64, out map[string]float64) error {
	r := rng.New(seed)
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = r.NormFloat64()
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			var s float64
			for k := 0; k < n; k++ {
				s += b[i][k] * b[j][k]
			}
			a[i][j] = s / float64(n)
		}
		a[i][i]++
	}
	var times []float64
	var err error
	for rep := 0; rep < 3 && err == nil; rep++ {
		s := rec.record("stats.SymEigen", 0, 0, func() { _, _, err = stats.SymEigen(a) })
		times = append(times, ms(s.Dur()))
	}
	out["stats.symeigen_ms"] = median(times)
	return err
}

// nnLayer times one forward and backward pass of the RL policy network
// (three hidden layers of 128, observation 3·cores+1, action 10·cores).
func nnLayer(rec *recorder, cores int, seed int64, out map[string]float64) error {
	obs, act := 3*cores+1, 10*cores
	net, err := nn.NewMLP([]int{obs, 128, 128, 128, act}, nn.Tanh, rng.New(seed))
	if err != nil {
		return err
	}
	x := make([]float64, obs)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	dOut := make([]float64, act)
	for i := range dOut {
		dOut[i] = float64(i%5-2) / 10
	}
	const reps = 300
	var per time.Duration
	rec.record("nn.MLP.ForwardBackward", 0, 0, func() {
		per = perCall(reps, func() {
			var t *nn.Tape
			if t, err = net.Forward(x); err == nil {
				net.Backward(t, dOut)
			}
		})
	})
	out["nn.forward_backward_us"] = float64(per) / 1e3
	return err
}
