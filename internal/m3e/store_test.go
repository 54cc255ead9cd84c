package m3e_test

import (
	"reflect"
	"sync"
	"testing"

	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
)

// TestCacheStoreCrossRun pins the cross-run contract: a second run
// whose Options.Cache shares the first run's store returns results
// bit-identical to a cold run while answering most of its evaluations
// from the first run's entries — counted in CrossHits.
func TestCacheStoreCrossRun(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 300
	cold, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: budget, Workers: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}

	store := m3e.NewCacheStore(0)
	first, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
		m3e.Options{Budget: budget, Workers: 1, Cache: m3e.NewFitnessCacheWith(prob, store)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.CrossHits != 0 {
		t.Errorf("first run on a fresh store reports %d cross hits, want 0", first.Cache.CrossHits)
	}
	// Identical seed → identical Ask stream → every decodable sample of
	// the repeat is already stored.
	second, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
		m3e.Options{Budget: budget, Workers: 1, Cache: m3e.NewFitnessCacheWith(prob, store)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]m3e.Result{"shared-first": first, "shared-second": second} {
		if got.BestFitness != cold.BestFitness || !reflect.DeepEqual(got.Best, cold.Best) ||
			!reflect.DeepEqual(got.Curve, cold.Curve) {
			t.Errorf("%s: result differs from the cold run", name)
		}
	}
	if second.Cache.CrossHits == 0 {
		t.Error("repeat run on a shared store reports no cross-run hits")
	}
	if second.Cache.Misses != 0 {
		t.Errorf("repeat of an identical run re-simulated %d schedules, want 0", second.Cache.Misses)
	}
	if second.Cache.CrossHits > second.Cache.Hits {
		t.Errorf("CrossHits %d exceeds Hits %d", second.Cache.CrossHits, second.Cache.Hits)
	}
	if r := second.Cache.CrossHitRate(); r <= 0 || r > 1 {
		t.Errorf("CrossHitRate = %v, want in (0, 1]", r)
	}
}

// TestCacheStoreConcurrentRuns drives several concurrent runs (distinct
// seeds) through one shared store and checks each matches its private
// cold run — the cmd/serve usage pattern, exercised under -race in CI.
func TestCacheStoreConcurrentRuns(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 150
	seeds := []int64{3, 4, 5, 6}
	cold := make([]m3e.Result, len(seeds))
	for i, seed := range seeds {
		res, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: budget, Workers: 1}, seed)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res
	}

	store := m3e.NewCacheStore(0)
	got := make([]m3e.Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			got[i], errs[i] = m3e.Run(prob, optmagma.New(optmagma.Config{}),
				m3e.Options{Budget: budget, Workers: 2, Cache: m3e.NewFitnessCacheWith(prob, store)}, seed)
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seeds[i], errs[i])
		}
		if got[i].BestFitness != cold[i].BestFitness || !reflect.DeepEqual(got[i].Curve, cold[i].Curve) {
			t.Errorf("seed %d: shared-store result differs from cold run", seeds[i])
		}
	}
	if store.Len() == 0 {
		t.Error("shared store is empty after four runs")
	}
}

// TestCacheStoreBounded pins that a shared store respects its capacity
// across runs and keeps the FIFO ring consistent when runs overlap on
// fingerprints.
func TestCacheStoreBounded(t *testing.T) {
	prob := parallelProblem(t)
	store := m3e.NewCacheStore(8)
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
			m3e.Options{Budget: 120, Workers: 1, Cache: m3e.NewFitnessCacheWith(prob, store)}, seed); err != nil {
			t.Fatal(err)
		}
		if store.Len() > 8 {
			t.Fatalf("seed %d: store holds %d entries, capacity 8", seed, store.Len())
		}
	}
}

// TestCacheStatsAddIncludesCrossHits guards the aggregation path used
// by OptimizeStream and the engine stats.
func TestCacheStatsAddIncludesCrossHits(t *testing.T) {
	a := m3e.CacheStats{Hits: 2, CrossHits: 1, Deduped: 3, Misses: 4, Invalid: 5}
	b := m3e.CacheStats{Hits: 10, CrossHits: 10, Deduped: 10, Misses: 10, Invalid: 10}
	b.Add(a)
	want := m3e.CacheStats{Hits: 12, CrossHits: 11, Deduped: 13, Misses: 14, Invalid: 15}
	if b != want {
		t.Errorf("Add = %+v, want %+v", b, want)
	}
}

// TestRunCacheRebind pins the single cache input of m3e.Run: one
// FitnessCache handed to sequential runs is rebound before each (fresh
// run id and counters, warm scratch), results stay bit-identical to a
// cold run, the repeat is answered from the first run's entries as
// cross-run hits, and a cache built for another Problem is rejected.
func TestRunCacheRebind(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 200
	cold, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: budget, Workers: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cache := m3e.NewFitnessCache(prob, 0)
	var runs []m3e.Result
	for rep := 0; rep < 2; rep++ {
		res, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
			m3e.Options{Budget: budget, Workers: 1, Cache: cache}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestFitness != cold.BestFitness || !reflect.DeepEqual(res.Curve, cold.Curve) {
			t.Fatalf("run %d on a reused cache diverged from the cold run", rep)
		}
		runs = append(runs, res)
	}
	if runs[0].Cache.CrossHits != 0 || runs[0].Cache.Misses == 0 {
		t.Errorf("first run: %+v (want misses, no cross hits)", runs[0].Cache)
	}
	if runs[1].Cache.Misses != 0 || runs[1].Cache.CrossHits == 0 {
		t.Errorf("repeat run: %+v (want no misses, only cross hits)", runs[1].Cache)
	}
	other := m3e.ProblemFromTable(prob.Table, prob.Objective)
	if _, err := m3e.Run(other, optmagma.New(optmagma.Config{}), m3e.Options{Budget: 50, Cache: cache}, 5); err == nil {
		t.Error("a cache built for another Problem was accepted")
	}
}
