package stats

import (
	"math"
	"math/rand"
	"testing"
)

// refSymEigen is the cyclic Jacobi solver on [][]float64 rows that
// SymEigen's flat layout must reproduce bit for bit.
func refSymEigen(a [][]float64) ([]float64, [][]float64) {
	n := len(a)
	m := make([][]float64, n)
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = append([]float64(nil), a[i]...)
		vecs[i] = make([]float64, n)
		vecs[i][i] = 1
	}
	for sweep := 0; sweep < 64; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-300 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := vecs[k][p], vecs[k][q]
					vecs[k][p] = c*vkp - s*vkq
					vecs[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = m[i][i]
	}
	return vals, vecs
}

// randomSPD returns B·Bᵀ/n + I for a Gaussian B: symmetric positive
// definite, the shape of a CMA-ES covariance.
func randomSPD(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = rng.NormFloat64()
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
	return a
}

func TestSymEigenMatchesReference(t *testing.T) {
	for _, n := range []int{2, 17, 200} {
		a := randomSPD(n, int64(n))
		vals, vecs, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		wantVals, wantVecs := refSymEigen(a)
		for i := range wantVals {
			if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("n=%d: eigenvalue %d = %g, reference %g", n, i, vals[i], wantVals[i])
			}
			for k := range wantVecs[i] {
				if math.Float64bits(vecs[i][k]) != math.Float64bits(wantVecs[i][k]) {
					t.Fatalf("n=%d: vecs[%d][%d] = %g, reference %g", n, i, k, vecs[i][k], wantVecs[i][k])
				}
			}
		}
	}
}

// BenchmarkSymEigen200 times one decomposition at CMA's Table IV
// dimension (2 × group 100).
func BenchmarkSymEigen200(b *testing.B) {
	a := randomSPD(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}
