package nn

import (
	"math"
	"math/rand"
	"testing"
)

// refForward is the per-sample reference the batched kernel must match
// bit for bit: weights as [out][in] row views and a separate bias, the
// bias first in each sum, then the inputs in ascending order. It
// returns every layer's input and the network output.
func refForward(m *MLP, x []float64) (inputs [][]float64, out []float64) {
	cur := x
	for _, l := range m.layers {
		inputs = append(inputs, cur)
		next := make([]float64, l.out)
		for o := range next {
			row := l.w[o*(l.in+1) : (o+1)*(l.in+1)]
			s := row[l.in]
			for i, xi := range cur {
				s += row[i] * xi
			}
			switch l.act {
			case ReLU:
				if s > 0 {
					next[o] = s
				}
			case Tanh:
				next[o] = math.Tanh(s)
			default:
				next[o] = s
			}
		}
		cur = next
	}
	return inputs, cur
}

// refBackward accumulates one sample's gradients into grads (the
// MLP's layout) the reference way: tanh′ re-derived from the
// pre-activation, outputs with a zero gradient skipped. It returns
// dL/dInput.
func refBackward(m *MLP, grads []float64, x, dOut []float64) []float64 {
	inputs, _ := refForward(m, x)
	off := make([]int, len(m.layers))
	for li := 1; li < len(m.layers); li++ {
		off[li] = off[li-1] + len(m.layers[li-1].w)
	}
	grad := dOut
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		in := inputs[li]
		g := grads[off[li] : off[li]+len(l.w)]
		dIn := make([]float64, l.in)
		for o := 0; o < l.out; o++ {
			row := l.w[o*(l.in+1) : (o+1)*(l.in+1)]
			pre := row[l.in]
			for i, xi := range in {
				pre += row[i] * xi
			}
			d := grad[o]
			switch l.act {
			case ReLU:
				if !(pre > 0) {
					d = 0
				}
			case Tanh:
				th := math.Tanh(pre)
				d = grad[o] * (1 - th*th)
			}
			if d == 0 {
				continue
			}
			g[o*(l.in+1)+l.in] += d
			for i := 0; i < l.in; i++ {
				g[o*(l.in+1)+i] += d * in[i]
				dIn[i] += d * row[i]
			}
		}
		grad = dIn
	}
	return grad
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBatchMatchesReference checks that every tile shape of the batched
// kernel (full tiles and every leftover row and output count) computes
// each output, weight gradient, bias gradient and input gradient with
// the reference's exact summation order, with gradients accumulated
// across calls.
func TestBatchMatchesReference(t *testing.T) {
	shapes := [][]int{{5, 9, 6, 3}, {13, 128, 128, 128, 40}}
	for _, act := range []Activation{ReLU, Tanh, Linear} {
		for si, sizes := range shapes {
			for _, n := range []int{1, 3, 4, 5, 7, 500} {
				if si == 1 && n != 500 {
					continue
				}
				m, err := NewMLP(sizes, act, rand.New(rand.NewSource(int64(n))))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(100 + n)))
				tape := m.NewTape(n)
				inW, outW := sizes[0], sizes[len(sizes)-1]
				xs := make([][]float64, n)
				ds := make([][]float64, n)
				for r := 0; r < n; r++ {
					xs[r] = tape.In(r)
					for i := range xs[r] {
						xs[r][i] = rng.NormFloat64()
					}
					ds[r] = tape.OutGrad(r)
					for i := range ds[r] {
						ds[r][i] = rng.NormFloat64()
					}
				}
				if len(xs[0]) != inW || len(ds[0]) != outW {
					t.Fatalf("row widths %d, %d; want %d, %d", len(xs[0]), len(ds[0]), inW, outW)
				}
				// Two calls per pass: gradients accumulate across them.
				split := n / 2
				for _, span := range [][2]int{{0, split}, {split, n}} {
					if err := m.ForwardRows(tape, span[0], span[1]); err != nil {
						t.Fatal(err)
					}
				}
				want := make([]float64, len(m.grads))
				for r := 0; r < n; r++ {
					_, out := refForward(m, xs[r])
					if i := sameBits(tape.OutRow(r), out); i >= 0 {
						t.Fatalf("act %d sizes %v n %d: row %d output %d differs", act, sizes, n, r, i)
					}
					refBackward(m, want, xs[r], ds[r])
				}
				m.ZeroGrad()
				for _, span := range [][2]int{{0, split}, {split, n}} {
					if err := m.BackwardRows(tape, span[0], span[1]); err != nil {
						t.Fatal(err)
					}
				}
				if i := sameBits(m.grads, want); i >= 0 {
					t.Fatalf("act %d sizes %v n %d: gradient %d = %g, reference %g", act, sizes, n, i, m.grads[i], want[i])
				}
				// The single-sample API is the n = 1 case of the same
				// kernel, input gradient included.
				m.ZeroGrad()
				ref := make([]float64, len(m.grads))
				for r := 0; r < n; r++ {
					one, err := m.Forward(xs[r])
					if err != nil {
						t.Fatal(err)
					}
					if i := sameBits(one.Out, tape.OutRow(r)); i >= 0 {
						t.Fatalf("act %d sizes %v: single-sample output %d differs from row %d", act, sizes, i, r)
					}
					dIn := m.Backward(one, ds[r])
					if i := sameBits(dIn, refBackward(m, ref, xs[r], ds[r])); i >= 0 {
						t.Fatalf("act %d sizes %v: row %d input gradient %d differs", act, sizes, r, i)
					}
				}
				if i := sameBits(m.grads, want); i >= 0 {
					t.Fatalf("act %d sizes %v n %d: single-sample gradient %d differs", act, sizes, n, i)
				}
			}
		}
	}
}

func TestRowsOutOfRange(t *testing.T) {
	m, _ := NewMLP([]int{2, 3, 1}, Tanh, rand.New(rand.NewSource(1)))
	tape := m.NewTape(4)
	for _, span := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		if err := m.ForwardRows(tape, span[0], span[1]); err == nil {
			t.Errorf("ForwardRows accepted rows %v of 4", span)
		}
		if err := m.BackwardRows(tape, span[0], span[1]); err == nil {
			t.Errorf("BackwardRows accepted rows %v of 4", span)
		}
	}
	other, _ := NewMLP([]int{3, 3, 1}, Tanh, rand.New(rand.NewSource(1)))
	if err := other.ForwardRows(tape, 0, 1); err == nil {
		t.Error("ForwardRows accepted another network's tape")
	}
}

// filledGrads returns a network whose gradients hold fixed values of
// both signs and several magnitudes.
func filledGrads(seed int64) *MLP {
	m, _ := NewMLP([]int{4, 6, 3}, Tanh, rand.New(rand.NewSource(seed)))
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range m.grads {
		m.grads[i] = rng.NormFloat64() * math.Pow(10, float64(i%5-2))
	}
	return m
}

func TestClipGradMatchesReference(t *testing.T) {
	for _, c := range []float64{0.5, 1e9} {
		m := filledGrads(7)
		want := append([]float64(nil), m.grads...)
		var sq float64
		for _, g := range want {
			sq += g * g
		}
		if norm := math.Sqrt(sq); norm > c {
			for i := range want {
				want[i] *= c / norm
			}
		}
		m.ClipGrad(c)
		if i := sameBits(m.grads, want); i >= 0 {
			t.Errorf("clip %g: gradient %d = %g, want %g", c, i, m.grads[i], want[i])
		}
	}
}

func TestOptimizersMatchReference(t *testing.T) {
	const steps = 3
	t.Run("RMSProp", func(t *testing.T) {
		m := filledGrads(11)
		w := append([]float64(nil), m.params...)
		c := make([]float64, len(w))
		// Runtime variables, not constants: Go folds constant
		// expressions such as 1-0.99 exactly, before rounding.
		lr, decay, eps := 7e-4, 0.99, 1e-5
		opt := NewRMSProp(lr)
		for s := 0; s < steps; s++ {
			for i, g := range m.grads {
				c[i] = decay*c[i] + (1-decay)*g*g
				w[i] -= lr * g / (math.Sqrt(c[i]) + eps)
			}
			opt.Step(m)
		}
		if i := sameBits(m.params, w); i >= 0 {
			t.Errorf("parameter %d = %g, want %g", i, m.params[i], w[i])
		}
	})
	t.Run("Adam", func(t *testing.T) {
		m := filledGrads(13)
		w := append([]float64(nil), m.params...)
		m1 := make([]float64, len(w))
		m2 := make([]float64, len(w))
		lr, beta1, beta2, eps := 2.5e-4, 0.9, 0.999, 1e-8
		opt := NewAdam(lr)
		for s := 1; s <= steps; s++ {
			bc1 := 1 - math.Pow(beta1, float64(s))
			bc2 := 1 - math.Pow(beta2, float64(s))
			for i, g := range m.grads {
				m1[i] = beta1*m1[i] + (1-beta1)*g
				m2[i] = beta2*m2[i] + (1-beta2)*g*g
				w[i] -= lr * (m1[i] / bc1) / (math.Sqrt(m2[i]/bc2) + eps)
			}
			opt.Step(m)
		}
		if i := sameBits(m.params, w); i >= 0 {
			t.Errorf("parameter %d = %g, want %g", i, m.params[i], w[i])
		}
	})
}

// policyBatch builds the RL policy network at the S2 shape (13 → 3×128
// → 40, tanh) and a filled tape of rows samples.
func policyBatch(tb testing.TB, rows int) (*MLP, *Tape) {
	m, err := NewMLP([]int{13, 128, 128, 128, 40}, Tanh, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	tape := m.NewTape(rows)
	for r := 0; r < rows; r++ {
		in, dOut := tape.In(r), tape.OutGrad(r)
		for i := range in {
			in[i] = float64((r+i)%7) / 7
		}
		for i := range dOut {
			dOut[i] = float64((r+i)%5-2) / 10
		}
	}
	return m, tape
}

func TestBatchAllocationFree(t *testing.T) {
	m, tape := policyBatch(t, 7)
	allocs := testing.AllocsPerRun(5, func() {
		if err := m.ForwardRows(tape, 0, 7); err != nil {
			t.Fatal(err)
		}
		if err := m.BackwardRows(tape, 0, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batched forward+backward allocates %g times per call", allocs)
	}
}

// BenchmarkMLPBatch times one forward and one backward pass over a
// 500-row batch (one 5-episode rollout at group 100) at the policy
// shape.
func BenchmarkMLPBatch(b *testing.B) {
	const rows = 500
	m, tape := policyBatch(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ForwardRows(tape, 0, rows); err != nil {
			b.Fatal(err)
		}
		if err := m.BackwardRows(tape, 0, rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows/1e3, "us/row")
}
