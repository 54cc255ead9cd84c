package rl

import (
	"math"
	"testing"

	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/opt/opttest"
	"magma/internal/platform"
	"magma/internal/rng"
)

// Small hidden widths keep the RL tests fast; the algorithmic paths are
// identical to the 128-wide paper configuration.
func smallA2C() m3e.Optimizer { return NewA2C(A2CConfig{Hidden: 16}) }
func smallPPO() m3e.Optimizer { return NewPPO(PPOConfig{Hidden: 16}) }

func TestA2CBattery(t *testing.T) {
	opttest.Battery(t, smallA2C, 300, 1.0)
}

func TestPPOBattery(t *testing.T) {
	opttest.Battery(t, smallPPO, 300, 1.0)
}

func TestDefaultsFollowTableIV(t *testing.T) {
	a := A2CConfig{}.withDefaults()
	if a.LR != 7e-4 || a.Gamma != 0.99 || a.Hidden != 128 {
		t.Errorf("A2C defaults %+v diverge from Table IV", a)
	}
	p := PPOConfig{}.withDefaults()
	if p.LR != 2.5e-4 || p.Gamma != 0.99 || p.Clip != 0.2 || p.Hidden != 128 {
		t.Errorf("PPO defaults %+v diverge from Table IV", p)
	}
}

func TestEpisodeProducesValidGenome(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 16, platform.S2())
	var c core
	if err := c.init(prob, rng.New(1), 8, 2); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		gs := c.rollout()
		if len(gs) != 2 || c.episodes != 2 {
			t.Fatalf("rollout of %d episodes (%d recorded), want 2", len(gs), c.episodes)
		}
		for e, g := range gs {
			if err := g.Validate(16, 4); err != nil {
				t.Fatalf("episode genome invalid: %v", err)
			}
			for j := 0; j < 16; j++ {
				r := e*16 + j
				if obs := c.ptape.In(r); len(obs) != c.obsDim {
					t.Fatalf("obs dim %d, want %d", len(obs), c.obsDim)
				}
				a := c.actions[r]
				if a < 0 || a >= c.actDim {
					t.Fatalf("action %d outside [0,%d)", a, c.actDim)
				}
				if g.Accel[j] != a/PriorityBuckets {
					t.Fatalf("episode %d job %d on core %d, recorded action %d", e, j, g.Accel[j], a)
				}
			}
		}
	}
}

func TestObservationNormalized(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 16, platform.S2())
	var c core
	if err := c.init(prob, rng.New(2), 8, 1); err != nil {
		t.Fatal(err)
	}
	load := []float64{100, 0, 50, 25}
	obs := make([]float64, c.obsDim)
	for j := 0; j < 16; j++ {
		c.observe(obs, j, load)
		for i, v := range obs {
			if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
				t.Fatalf("job %d obs[%d] = %g outside [0,1]", j, i, v)
			}
		}
	}
}

func TestReturnsDiscounting(t *testing.T) {
	r := make([]float64, 3)
	returns(r, 0.5, 8)
	want := []float64{2, 4, 8}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Errorf("returns[%d] = %g, want %g", i, r[i], want[i])
		}
	}
}

func TestRewardNormalization(t *testing.T) {
	var c core
	// Feed constant rewards: normalized values must stay finite and the
	// running std guard must avoid division by zero.
	for i := 0; i < 10; i++ {
		v := c.normalizeReward(5)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("normalized reward %g", v)
		}
	}
	// -Inf (constraint-violating) rewards must not poison the stats.
	v := c.normalizeReward(math.Inf(-1))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("normalized -Inf reward = %g", v)
	}
}

func TestA2CImprovesOnBiasedProblem(t *testing.T) {
	// On the heterogeneous S2 a learned policy must, within a modest
	// budget, avoid the pathological LB placements and beat the random
	// mean comfortably.
	prob := opttest.Problem(t, models.Recommendation, 16, platform.S2())
	randomMean := opttest.RandomMean(t, prob, 40, 17)
	res, err := m3e.Run(prob, NewA2C(A2CConfig{Hidden: 24, EpisodesPer: 4}), m3e.Options{Budget: 600}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < randomMean {
		t.Errorf("A2C best %g below random mean %g", res.BestFitness, randomMean)
	}
}

func TestPPOLearnsOnBiasedProblem(t *testing.T) {
	prob := opttest.Problem(t, models.Recommendation, 16, platform.S2())
	randomMean := opttest.RandomMean(t, prob, 40, 18)
	res, err := m3e.Run(prob, NewPPO(PPOConfig{Hidden: 24, EpisodesPer: 4}), m3e.Options{Budget: 600}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < randomMean {
		t.Errorf("PPO best %g below random mean %g", res.BestFitness, randomMean)
	}
}

// told asks one rollout of o and returns the fitness of its episodes.
func told(tb testing.TB, o m3e.Optimizer, prob *m3e.Problem) []float64 {
	gs := o.Ask()
	fit := make([]float64, len(gs))
	for i, g := range gs {
		f, err := prob.Evaluate(g)
		if err != nil {
			tb.Fatal(err)
		}
		fit[i] = f
	}
	return fit
}

func TestTellAllocationFree(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 16, platform.S2())
	for _, o := range []m3e.Optimizer{smallA2C(), smallPPO()} {
		if err := o.Init(prob, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		// The first generation allocates the optimizers' state.
		o.Tell(nil, told(t, o, prob))
		fit := told(t, o, prob)
		if allocs := testing.AllocsPerRun(3, func() { o.Tell(nil, fit) }); allocs != 0 {
			t.Errorf("%s Tell allocates %g times per call", o.Name(), allocs)
		}
	}
}

// benchTell times Tell at the paper width on one 5-episode rollout at
// group 100 (500 steps), the shape table4-sweep runs.
func benchTell(b *testing.B, o m3e.Optimizer) {
	prob := opttest.Problem(b, models.Mix, 100, platform.S2())
	if err := o.Init(prob, rng.New(1)); err != nil {
		b.Fatal(err)
	}
	o.Tell(nil, told(b, o, prob))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fit := told(b, o, prob)
		b.StartTimer()
		o.Tell(nil, fit)
	}
}

func BenchmarkA2CTell(b *testing.B) { benchTell(b, NewA2C(A2CConfig{})) }

func BenchmarkPPOTell(b *testing.B) { benchTell(b, NewPPO(PPOConfig{})) }
