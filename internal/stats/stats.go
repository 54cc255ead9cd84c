// Package stats provides the small numerical toolbox the framework
// needs: a symmetric eigensolver (used by CMA-ES), principal component
// analysis (the 2-D projection of explored mappings in Fig. 10), and
// summary statistics (geomean speedups quoted throughout §VI).
// Everything is hand-rolled on the standard library.
package stats

import (
	"fmt"
	"math"
)

// SymEigen computes the eigen-decomposition of a symmetric n×n matrix
// with the cyclic Jacobi method. It returns the eigenvalues and a matrix
// whose COLUMNS are the corresponding orthonormal eigenvectors
// (a[i][j] ≈ Σ_k vecs[i][k]·vals[k]·vecs[j][k]).
//
// The working matrix is one row-major slice and the eigenvectors are
// accumulated transposed, one per row, so a rotation's eigenvector
// update is two contiguous rows. Each element sees the classic cyclic
// sweep's rotations in the classic order, with products rounded before
// they are combined (no fused multiply-add), so the result is
// bit-identical to the textbook [][]float64 formulation on every
// platform.
func SymEigen(a [][]float64) (vals []float64, vecs [][]float64, err error) {
	n := len(a)
	if n == 0 {
		return nil, nil, fmt.Errorf("stats: empty matrix")
	}
	m := make([]float64, n*n) // working copy
	v := make([]float64, n*n) // row k: eigenvector k
	for i, row := range a {
		if len(row) != n {
			return nil, nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(row), n)
		}
		copy(m[i*n:], row)
		v[i*n+i] = 1
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for _, x := range m[i*n+i+1 : (i+1)*n] {
				off += float64(x * x)
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				mpq := m[p*n+q]
				if math.Abs(mpq) < 1e-300 {
					continue
				}
				theta := (m[q*n+q] - m[p*n+p]) / (2 * mpq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				// A ← Jᵀ·A·J rotates columns p and q, then rows p and q.
				// The two passes share only the 2×2 block, which takes
				// the column rotation first; every other element is
				// rotated once, so one loop does both passes.
				rp, rq := m[p*n:(p+1)*n], m[q*n:(q+1)*n]
				rq = rq[:len(rp)]
				app, apq := rot(c, s, rp[p], rp[q])
				aqp, aqq := rot(c, s, rq[p], rq[q])
				rp[p], rq[p] = rot(c, s, app, aqp)
				rp[q], rq[q] = rot(c, s, apq, aqq)
				for k := range rp {
					if k == p || k == q {
						continue
					}
					kp, kq := k*n+p, k*n+q
					m[kp], m[kq] = rot(c, s, m[kp], m[kq])
					rp[k], rq[k] = rot(c, s, rp[k], rq[k])
				}
				vp, vq := v[p*n:(p+1)*n], v[q*n:(q+1)*n]
				vq = vq[:len(vp)]
				for k := range vp {
					vp[k], vq[k] = rot(c, s, vp[k], vq[k])
				}
			}
		}
	}
	vals = make([]float64, n)
	vecs = make([][]float64, n)
	for i := range vecs {
		vals[i] = m[i*n+i]
		vecs[i] = make([]float64, n)
		for k := range vecs[i] {
			vecs[i][k] = v[k*n+i]
		}
	}
	return vals, vecs, nil
}

// rot applies the plane rotation (c, s) to the pair (x, y).
func rot(c, s, x, y float64) (float64, float64) {
	return float64(c*x) - float64(s*y), float64(s*x) + float64(c*y)
}

// PCA2 projects a set of row vectors onto their first two principal
// components (the Fig. 10 visualization). It returns one (x, y) pair per
// input row. Requires at least two rows and two columns.
func PCA2(rows [][]float64) ([][2]float64, error) {
	if len(rows) < 2 {
		return nil, fmt.Errorf("stats: PCA needs >= 2 samples, got %d", len(rows))
	}
	d := len(rows[0])
	if d < 2 {
		return nil, fmt.Errorf("stats: PCA needs >= 2 dimensions, got %d", d)
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("stats: row %d has %d dims, want %d", i, len(r), d)
		}
	}
	mean := make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(rows))
	}
	// Power iteration with deflation avoids building the d×d covariance
	// (d can be 2× group size): we only need Cov·v, computable row-wise.
	centered := make([][]float64, len(rows))
	for i, r := range rows {
		c := make([]float64, d)
		for j, v := range r {
			c[j] = v - mean[j]
		}
		centered[i] = c
	}
	covMul := func(v []float64, excl []float64) []float64 {
		out := make([]float64, d)
		for _, c := range centered {
			var dot float64
			for j := range c {
				dot += c[j] * v[j]
			}
			for j := range c {
				out[j] += dot * c[j]
			}
		}
		if excl != nil {
			var dot float64
			for j := range out {
				dot += out[j] * excl[j]
			}
			for j := range out {
				out[j] -= dot * excl[j]
			}
		}
		return out
	}
	pc := func(excl []float64, seed int) []float64 {
		v := make([]float64, d)
		for j := range v {
			// Deterministic quasi-random start.
			v[j] = math.Sin(float64(j*2654435761 + seed))
		}
		normalize(v)
		if excl != nil {
			orthogonalize(v, excl)
		}
		for it := 0; it < 200; it++ {
			nv := covMul(v, excl)
			if norm(nv) < 1e-30 {
				return v // degenerate direction; keep last
			}
			normalize(nv)
			if excl != nil {
				orthogonalize(nv, excl)
				normalize(nv)
			}
			delta := 0.0
			for j := range v {
				delta += math.Abs(nv[j] - v[j])
			}
			v = nv
			if delta < 1e-12 {
				break
			}
		}
		return v
	}
	p1 := pc(nil, 1)
	p2 := pc(p1, 2)
	out := make([][2]float64, len(rows))
	for i, c := range centered {
		var x, y float64
		for j := range c {
			x += c[j] * p1[j]
			y += c[j] * p2[j]
		}
		out[i] = [2]float64{x, y}
	}
	return out, nil
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func orthogonalize(v, against []float64) {
	var dot float64
	for i := range v {
		dot += v[i] * against[i]
	}
	for i := range v {
		v[i] -= dot * against[i]
	}
}

// Geomean returns the geometric mean of positive values — the metric
// the paper quotes for cross-task speedups ("geomean 1.4x better").
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %g", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation (0 for n < 2).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// LinRegSlope fits y = a + b·x by least squares over equally indexed
// points (x = 0..n-1) and returns b. Used by TBPSA's stagnation test.
func LinRegSlope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	meanX := (n - 1) / 2
	meanY := Mean(ys)
	var num, den float64
	for i, y := range ys {
		dx := float64(i) - meanX
		num += dx * (y - meanY)
		den += dx * dx
	}
	if den == 0 {
		return 0
	}
	return num / den
}
