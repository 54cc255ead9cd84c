package m3e_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/opt/cmaes"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/workload"
)

// TestRunBoundDeterminism is the analytical-pruning contract: for every
// elitist mapper, at every worker count, Bound on returns bit-identical
// Results — best genome, best fitness, convergence curve, samples — to
// the unpruned serial uncached run. A pruned candidate's assigned bound
// may differ from its true fitness, but the elite floor guarantees the
// optimizer never consumes that difference.
func TestRunBoundDeterminism(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 800
	mappers := []struct {
		name string
		mk   func() m3e.Optimizer
	}{
		{"MAGMA", func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }},
		{"stdGA", func() m3e.Optimizer { return ga.New(ga.Config{}) }},
		{"CMA", func() m3e.Optimizer { return cmaes.New(cmaes.Config{}) }},
	}
	for _, m := range mappers {
		t.Run(m.name, func(t *testing.T) {
			base, err := m3e.Run(prob, m.mk(), m3e.Options{Budget: budget, Workers: 1}, 5)
			if err != nil {
				t.Fatal(err)
			}
			var prunedTotal uint64
			for _, bound := range []bool{false, true} {
				for _, workers := range []int{1, 2, 8} {
					got, err := m3e.Run(prob, m.mk(),
						m3e.Options{Budget: budget, Workers: workers, Cache: m3e.NewFitnessCache(prob, 0), Bound: bound}, 5)
					if err != nil {
						t.Fatalf("workers=%d bound=%v: %v", workers, bound, err)
					}
					if got.BestFitness != base.BestFitness {
						t.Errorf("workers=%d bound=%v: BestFitness %v != unpruned serial %v",
							workers, bound, got.BestFitness, base.BestFitness)
					}
					if !reflect.DeepEqual(got.Best, base.Best) {
						t.Errorf("workers=%d bound=%v: Best genome differs from unpruned serial", workers, bound)
					}
					if !reflect.DeepEqual(got.Curve, base.Curve) {
						t.Errorf("workers=%d bound=%v: convergence curve differs from unpruned serial", workers, bound)
					}
					if got.Samples != base.Samples {
						t.Errorf("workers=%d bound=%v: samples %d != %d", workers, bound, got.Samples, base.Samples)
					}
					st := got.Cache
					if st.Hits+st.Deduped+st.Misses+st.Invalid != uint64(got.Samples) {
						t.Errorf("workers=%d bound=%v: counters %+v don't add up to %d samples",
							workers, bound, st, got.Samples)
					}
					if !bound && (st.BoundChecked != 0 || st.BoundPruned != 0) {
						t.Errorf("workers=%d: bound off but BoundChecked=%d BoundPruned=%d",
							workers, st.BoundChecked, st.BoundPruned)
					}
					if bound {
						// The elite floor is built from store hits, so only
						// mappers that re-ask schedules (MAGMA, stdGA elites)
						// ever arm it; CMA's continuous sampling never repeats
						// a schedule and the path stays safely inert.
						if m.name != "CMA" && st.BoundChecked == 0 {
							t.Errorf("workers=%d: bound on but no candidate was ever checked", workers)
						}
						if st.BoundPruned > st.Misses {
							t.Errorf("workers=%d: BoundPruned %d exceeds Misses %d (pruned candidates are misses)",
								workers, st.BoundPruned, st.Misses)
						}
						prunedTotal += st.BoundPruned
					}
				}
			}
			t.Logf("%s: %d pruned across bound-on runs", m.name, prunedTotal)
			if m.name == "MAGMA" && prunedTotal == 0 {
				t.Error("MAGMA with Bound never pruned a candidate; the fast path is dead")
			}
		})
	}
}

// TestRunBoundRequiresCache pins the arming rule: pruning lives inside
// the fingerprint cache layer, so Bound without a cache is an error
// rather than a silent no-op.
func TestRunBoundRequiresCache(t *testing.T) {
	prob := parallelProblem(t)
	_, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
		m3e.Options{Budget: 100, Bound: true}, 3)
	if err == nil || !strings.Contains(err.Error(), "Bound requires") {
		t.Fatalf("Bound without Cache: err = %v, want Bound-requires-cache error", err)
	}
}

// TestFitnessCacheBoundPrunedExcludedFromStore drives the cache directly
// and pins the snapshot-compatibility invariant: a pruned candidate's
// assigned bound never enters the backing store, so the store only ever
// holds exact fitness — Len() == Misses − BoundPruned — and a later
// evaluation of a pruned schedule re-misses and gets the exact value.
func TestFitnessCacheBoundPrunedExcludedFromStore(t *testing.T) {
	// Ample bandwidth keeps the problem compute-dominated, so the
	// serialized pile-up's bound (sum of all latencies on one core) is
	// unambiguously below the floor set by spread schedules (max per-core
	// sum) — on a BW-starved problem the shared bandwidth roofline is
	// placement-independent and would mask the difference.
	w, err := workload.Generate(workload.Config{NumJobs: 16, GroupSize: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], platform.S2().WithBW(1e4), m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	cache := m3e.NewFitnessCache(prob, 0)
	pool := m3e.NewPool(prob, 4)
	r := rand.New(rand.NewSource(41))

	// Round 1 (bound off): spread random genomes populate the store.
	good := make([]encoding.Genome, 12)
	for i := range good {
		good[i] = encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
	}
	fit := make([]float64, len(good))
	cache.Evaluate(pool, good, fit)

	// Round 2 (bound armed): the re-submitted genomes hit the store and
	// form the elite floor; pile-ups serialize every job on the slowest
	// core (S2's LB core), whose roofline bound cannot reach the floor.
	best := math.Inf(1) // best-so-far far above the floor: floor governs
	cache.SetBound(pool.Bounds(), &best, func(told int) int { return 2 })
	pile := make([]encoding.Genome, 4)
	for i := range pile {
		pile[i] = encoding.Genome{Accel: make([]int, prob.NumJobs()), Prio: make([]float64, prob.NumJobs())}
		for j := range pile[i].Prio {
			pile[i].Accel[j] = prob.NumAccels() - 1
			pile[i].Prio[j] = r.Float64()
		}
	}
	batch := append(append([]encoding.Genome{}, good...), pile...)
	fit2 := make([]float64, len(batch))
	cache.Evaluate(pool, batch, fit2)

	st := cache.Stats()
	if st.BoundChecked == 0 {
		t.Fatal("bound armed with hits present, but nothing was checked")
	}
	if st.BoundPruned == 0 {
		t.Fatal("all-jobs-on-one-core candidates were not pruned against a spread elite floor")
	}
	if got, want := cache.Len(), int(st.Misses-st.BoundPruned); got != want {
		t.Errorf("store holds %d entries, want Misses−BoundPruned = %d (a bound leaked into the store)", got, want)
	}
	if rate := st.BoundPruneRate(); rate <= 0 || rate > 1 {
		t.Errorf("BoundPruneRate = %v, want in (0, 1]", rate)
	}

	// A pruned schedule re-submitted with pruning off must re-miss and
	// come back exact — the store never serves a bound as fitness.
	cache.SetBound(nil, nil, nil)
	missesBefore := st.Misses
	refit := make([]float64, 1)
	cache.Evaluate(pool, pile[:1], refit)
	if st2 := cache.Stats(); st2.Misses != missesBefore+1 {
		t.Errorf("re-submitted pruned schedule missed %d times, want 1 (was its bound stored?)",
			st2.Misses-missesBefore)
	}
	want, err := prob.Evaluate(pile[0])
	if err != nil {
		t.Fatal(err)
	}
	if refit[0] != want {
		t.Errorf("re-evaluated pruned schedule scored %v, want exact %v", refit[0], want)
	}
	if refit[0] == fit2[len(good)] && fit2[len(good)] < want {
		t.Error("exact fitness equals the assigned bound; the prune test is vacuous")
	}
}
