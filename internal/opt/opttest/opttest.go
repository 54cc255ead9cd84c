// Package opttest provides the shared test battery for optimization
// algorithms: every mapper must drive a small search, respect the
// sampling budget, behave deterministically under a fixed seed, and
// clearly beat the average random sample (i.e. actually optimize).
package opttest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/workload"
)

// Problem builds a small, deterministic test problem.
func Problem(t testing.TB, task models.Task, nJobs int, p platform.Platform) *m3e.Problem {
	t.Helper()
	w, err := workload.Generate(workload.Config{Task: task, NumJobs: nJobs, GroupSize: nJobs, Seed: 31})
	if err != nil {
		t.Fatalf("opttest: generate workload: %v", err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], p, m3e.Throughput)
	if err != nil {
		t.Fatalf("opttest: build problem: %v", err)
	}
	return prob
}

// RandomMean estimates the mean fitness of uniform random mappings.
func RandomMean(t testing.TB, prob *m3e.Problem, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		g := encoding.Random(prob.NumJobs(), prob.NumAccels(), rng)
		f, err := prob.Evaluate(g)
		if err != nil {
			t.Fatalf("opttest: evaluate random: %v", err)
		}
		sum += f
	}
	return sum / float64(n)
}

// Battery runs the standard conformance checks against an optimizer
// constructor. improvementFactor is the required ratio of the found
// best to the random mean (1.0 = must at least match random).
func Battery(t *testing.T, mk func() m3e.Optimizer, budget int, improvementFactor float64) {
	t.Helper()
	prob := Problem(t, models.Mix, 24, platform.S2())

	t.Run("BudgetExact", func(t *testing.T) {
		res, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 1)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Samples != budget {
			t.Errorf("samples = %d, want %d", res.Samples, budget)
		}
		if len(res.Curve) != budget {
			t.Errorf("curve length = %d, want %d", len(res.Curve), budget)
		}
		if err := res.Best.Validate(prob.NumJobs(), prob.NumAccels()); err != nil {
			t.Errorf("best genome invalid: %v", err)
		}
	})

	t.Run("Deterministic", func(t *testing.T) {
		a, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.BestFitness != b.BestFitness {
			t.Errorf("same seed, different best: %g vs %g", a.BestFitness, b.BestFitness)
		}
	})

	t.Run("BeatsRandomMean", func(t *testing.T) {
		randomMean := RandomMean(t, prob, 50, 99)
		res, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestFitness < randomMean*improvementFactor {
			t.Errorf("best %g below %gx random mean %g", res.BestFitness, improvementFactor, randomMean)
		}
	})
}

// Pin is a run's trajectory fingerprint for cross-commit golden tests:
// the exact bits of the best fitness and FNV-64a hashes of the best
// genome, of the best-so-far curve and of every sampled vector (zero
// unless the run set Options.RecordSamples). The curve moves only on a
// new best; the samples move with any change to what was asked.
type Pin struct {
	BestFitness uint64
	Best        uint64
	Curve       uint64
	Explored    uint64
}

// PinOf fingerprints a run result.
func PinOf(res m3e.Result) Pin {
	best := fnv.New64a()
	var buf [8]byte
	for _, a := range res.Best.Accel {
		binary.LittleEndian.PutUint64(buf[:], uint64(a))
		best.Write(buf[:])
	}
	for _, p := range res.Best.Prio {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		best.Write(buf[:])
	}
	curve := fnv.New64a()
	for _, f := range res.Curve {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		curve.Write(buf[:])
	}
	pin := Pin{BestFitness: math.Float64bits(res.BestFitness), Best: best.Sum64(), Curve: curve.Sum64()}
	if res.Explored != nil {
		explored := fnv.New64a()
		for _, v := range res.Explored {
			for _, x := range v {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				explored.Write(buf[:])
			}
		}
		pin.Explored = explored.Sum64()
	}
	return pin
}
