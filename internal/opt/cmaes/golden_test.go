package cmaes

import (
	"testing"

	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/opt/opttest"
	"magma/internal/platform"
)

// TestGoldenTrajectory pins CMA-ES at the Table IV dimension (group
// 100, n = 200) across commits. At λ = 19 the covariance is
// eigen-decomposed every third generation, so a budget of 100 samples
// generations 4–6 (the last truncated) on eigenvectors from
// stats.SymEigen: any bit it moves moves this trajectory. The values were recorded with the [][]float64
// Jacobi solver, before its flat rewrite.
func TestGoldenTrajectory(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 100, platform.S2())
	o := New(Config{})
	res, err := m3e.Run(prob, o, m3e.Options{Budget: 100, RecordSamples: true}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if o.lambda != 19 || o.eigenGap != 3 {
		t.Fatalf("λ = %d, eigen gap = %d; the budget assumes 19 and 3", o.lambda, o.eigenGap)
	}
	want := opttest.Pin{BestFitness: 0x40725a2b30edc225, Best: 0x2981ca149adf772f, Curve: 0x486d6d281beed0ca, Explored: 0xa05a6e8d98471bc0}
	if got := opttest.PinOf(res); got != want {
		t.Errorf("trajectory moved: got %#v, want %#v", got, want)
	}
}
