package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewMLP([]int{4, 8, 3}, ReLU, rng)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := m.Forward([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tape.Out) != 3 {
		t.Errorf("output size = %d, want 3", len(tape.Out))
	}
	if _, err := m.Forward([]float64{1}); err == nil {
		t.Error("wrong input size accepted")
	}
	if _, err := NewMLP([]int{4}, ReLU, rng); err == nil {
		t.Error("single-size MLP accepted")
	}
}

// numericGrad estimates dOut[j]/dParam via central differences.
func numericGrad(m *MLP, x []float64, param *float64, j int) float64 {
	const h = 1e-5
	old := *param
	*param = old + h
	tp, _ := m.Forward(x)
	up := tp.Out[j]
	*param = old - h
	tm, _ := m.Forward(x)
	down := tm.Out[j]
	*param = old
	return (up - down) / (2 * h)
}

func TestBackwardMatchesNumericGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, act := range []Activation{ReLU, Tanh, Linear} {
		m, err := NewMLP([]int{3, 5, 2}, act, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{0.3, -0.7, 1.1}
		// Loss = out[0] (pick dOut = [1, 0]).
		tape, err := m.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		m.ZeroGrad()
		dIn := m.Backward(tape, []float64{1, 0})
		// Check a sample of weight gradients in each layer: a row's
		// weights sit at o·(In+1)+i, its bias at o·(In+1)+In.
		for li, l := range m.layers {
			stride := l.in + 1
			for _, idx := range [][2]int{{0, 0}, {l.out - 1, l.in - 1}} {
				o, i := idx[0], idx[1]
				want := numericGrad(m, x, &l.w[o*stride+i], 0)
				got := l.g[o*stride+i]
				if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Errorf("act %d layer %d W[%d][%d]: grad %g, numeric %g", act, li, o, i, got, want)
				}
			}
			want := numericGrad(m, x, &l.w[l.in], 0)
			if got := l.g[l.in]; math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("act %d layer %d B[0]: grad %g, numeric %g", act, li, got, want)
			}
		}
		// Input gradient via finite differences.
		xp := append([]float64(nil), x...)
		const h = 1e-5
		xp[1] += h
		tp, _ := m.Forward(xp)
		xp[1] -= 2 * h
		tm, _ := m.Forward(xp)
		want := (tp.Out[0] - tm.Out[0]) / (2 * h)
		if math.Abs(dIn[1]-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("act %d dIn[1] = %g, numeric %g", act, dIn[1], want)
		}
	}
}

// softmax returns Softmax(logits) in a fresh slice.
func softmax(logits []float64) []float64 {
	p := make([]float64, len(logits))
	Softmax(p, logits)
	return p
}

func TestSoftmax(t *testing.T) {
	p := softmax([]float64{1, 2, 3})
	var sum float64
	for _, v := range p {
		if v <= 0 {
			t.Errorf("non-positive prob %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %g", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
	// Stability under large logits.
	p = softmax([]float64{1000, 1000, 999})
	if math.IsNaN(p[0]) {
		t.Error("softmax overflow")
	}
}

func TestSampleCategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probs := []float64{0.1, 0.7, 0.2}
	counts := make([]int, 3)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(probs, rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("category %d frequency %g, want %g", i, got, p)
		}
	}
}

func TestLogProbAndEntropy(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := LogProb(p, 0); math.Abs(got-math.Log(0.5)) > 1e-12 {
		t.Errorf("LogProb = %g", got)
	}
	if got := LogProb([]float64{0, 1}, 0); math.IsInf(got, -1) {
		t.Error("LogProb(0) not guarded")
	}
	if got := Entropy(p); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("Entropy = %g, want ln 2", got)
	}
	if got := Entropy([]float64{1, 0}); got != 0 {
		t.Errorf("deterministic entropy = %g", got)
	}
}

func TestSoftmaxBackwardNumeric(t *testing.T) {
	// Verify d(-log p[a])/dlogits against finite differences.
	logits := []float64{0.2, -0.4, 0.9}
	action := 1
	grad := make([]float64, len(logits))
	SoftmaxBackward(grad, softmax(logits), action, 1.0)
	const h = 1e-6
	for i := range logits {
		logits[i] += h
		up := -LogProb(softmax(logits), action)
		logits[i] -= 2 * h
		down := -LogProb(softmax(logits), action)
		logits[i] += h
		want := (up - down) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-5 {
			t.Errorf("dlogits[%d] = %g, numeric %g", i, grad[i], want)
		}
	}
}

func TestEntropyBackwardNumeric(t *testing.T) {
	logits := []float64{0.1, 0.5, -0.3}
	beta := 0.7
	grad := make([]float64, len(logits))
	EntropyBackward(grad, softmax(logits), beta)
	const h = 1e-6
	for i := range logits {
		logits[i] += h
		up := -beta * Entropy(softmax(logits))
		logits[i] -= 2 * h
		down := -beta * Entropy(softmax(logits))
		logits[i] += h
		want := (up - down) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-5 {
			t.Errorf("dlogits[%d] = %g, numeric %g", i, grad[i], want)
		}
	}
}

func TestClipGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, _ := NewMLP([]int{2, 3, 1}, ReLU, rng)
	tape, _ := m.Forward([]float64{5, -5})
	m.ZeroGrad()
	m.Backward(tape, []float64{100})
	m.ClipGrad(1.0)
	var sq float64
	for _, g := range m.grads {
		sq += g * g
	}
	if math.Sqrt(sq) > 1.0+1e-9 {
		t.Errorf("clipped norm = %g", math.Sqrt(sq))
	}
}

// trainXOR checks that an optimizer can actually fit a tiny nonlinear
// function — an end-to-end sanity check of forward/backward/step.
func trainXOR(t *testing.T, mk func() Optimizer, iters int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	m, _ := NewMLP([]int{2, 16, 1}, Tanh, rng)
	opt := mk()
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	var loss float64
	for it := 0; it < iters; it++ {
		m.ZeroGrad()
		loss = 0
		for _, d := range data {
			tape, _ := m.Forward([]float64{d[0], d[1]})
			diff := tape.Out[0] - d[2]
			loss += diff * diff
			m.Backward(tape, []float64{2 * diff})
		}
		opt.Step(m)
	}
	return loss
}

func TestRMSPropLearnsXOR(t *testing.T) {
	if loss := trainXOR(t, func() Optimizer { return NewRMSProp(0.01) }, 2000); loss > 0.05 {
		t.Errorf("RMSProp final XOR loss = %g", loss)
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	if loss := trainXOR(t, func() Optimizer { return NewAdam(0.01) }, 2000); loss > 0.05 {
		t.Errorf("Adam final XOR loss = %g", loss)
	}
}

// Property: softmax output is always a valid distribution.
func TestQuickSoftmaxDistribution(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip degenerate inputs
			}
		}
		p := softmax([]float64{a, b, c})
		var sum float64
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
