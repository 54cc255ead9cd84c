// Package nn is a small, dependency-free neural-network substrate for
// the reinforcement-learning mappers (Table IV): dense layers with
// ReLU/tanh activations, a categorical (softmax) head, and the RMSProp
// and Adam optimizers the paper configures for A2C and PPO2. It
// supports exactly what policy-gradient training needs: batched forward
// passes that record activations on a reusable Tape, and a batched
// backward pass accumulating gradients.
//
// Every parameter lives in one flat slice. Layer by layer, a layer of
// In inputs and Out outputs stores Out rows of In+1 floats: the row's
// weights, then its bias. Gradients and optimizer state share that
// layout, so the whole-network operations are single loops.
//
// The kernel may compute elements in any order, but each element keeps
// one fixed summation order (see DESIGN.md, "RL and CMA numerical
// kernels"): a forward output sums its bias, then the inputs in
// ascending order; a weight or bias gradient sums the batch rows in
// ascending order, across calls as within one; an input gradient sums
// the outputs in ascending order, starting from zero. Products are
// rounded before they are added (the explicit float64 conversions
// forbid fused multiply-adds), so a batch of n rows is bit-identical to
// n single-row passes on every platform.
package nn

import (
	"fmt"
	"math"
)

// Activation selects a layer's nonlinearity.
type Activation uint8

const (
	// Linear applies no nonlinearity (output heads).
	Linear Activation = iota
	// ReLU applies max(0, x).
	ReLU
	// Tanh applies tanh(x).
	Tanh
)

// Rand is the randomness nn consumes (weight init, categorical
// sampling). Both *math/rand.Rand and internal/rng's *Stream satisfy
// it, so the package stays agnostic to the caller's RNG layout.
type Rand interface {
	Float64() float64
	NormFloat64() float64
}

// dense is one fully-connected layer: its parameters w and gradients g
// are Out rows of In+1 floats (weights, then bias) inside the MLP's
// flat slices.
type dense struct {
	in, out int
	act     Activation
	w, g    []float64
}

// MLP is a stack of dense layers.
type MLP struct {
	layers []dense
	params []float64
	grads  []float64
	width  int // widest layer, inputs included
}

// NewMLP builds an MLP with the given layer sizes (len >= 2), hidden
// activation for all but the last layer, and a Linear output layer.
// The paper's policy/critic networks are 3 hidden layers of 128 (§VI-B).
// Weights are drawn layer by layer, row by row, with He (ReLU) or
// Xavier (Tanh, Linear) scaling; biases start at zero.
func NewMLP(sizes []int, hidden Activation, rng Rand) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs >= 2 sizes, got %d", len(sizes))
	}
	n := 0
	for i, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: layer size %d at %d, want >= 1", s, i)
		}
		if i > 0 {
			n += s * (sizes[i-1] + 1)
		}
	}
	m := &MLP{params: make([]float64, n), grads: make([]float64, n), width: sizes[0]}
	off := 0
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		act := hidden
		if i+2 == len(sizes) {
			act = Linear
		}
		size := out * (in + 1)
		l := dense{in: in, out: out, act: act, w: m.params[off : off+size], g: m.grads[off : off+size]}
		off += size
		scale := math.Sqrt(2.0 / float64(in))
		if act == Tanh || act == Linear {
			scale = math.Sqrt(1.0 / float64(in))
		}
		for o := 0; o < out; o++ {
			row := l.w[o*(in+1) : o*(in+1)+in]
			for j := range row {
				row[j] = rng.NormFloat64() * scale
			}
		}
		m.layers = append(m.layers, l)
		if out > m.width {
			m.width = out
		}
	}
	return m, nil
}

// Tape records the activations of a batch of forward passes, one row
// per sample, so the matching backward pass can compute gradients. A
// tape is sized for one network and reused from batch to batch.
type Tape struct {
	rows int
	// acts[0] holds the input rows, acts[l+1] the output rows of layer l.
	acts [][]float64
	// Out is the network output: one row of the output width per sample.
	Out []float64
	// dOut holds dL/dOut per row, written by the caller before Backward.
	dOut []float64
	// d is the backward pass's scratch: two buffers of rows × the widest
	// layer.
	d [2][]float64
}

// NewTape allocates a tape for batches of up to rows samples.
func (m *MLP) NewTape(rows int) *Tape {
	t := &Tape{rows: rows, acts: make([][]float64, len(m.layers)+1)}
	t.acts[0] = make([]float64, rows*m.layers[0].in)
	for i, l := range m.layers {
		t.acts[i+1] = make([]float64, rows*l.out)
	}
	t.Out = t.acts[len(m.layers)]
	t.dOut = make([]float64, len(t.Out))
	t.d[0] = make([]float64, rows*m.width)
	t.d[1] = make([]float64, rows*m.width)
	return t
}

// In returns sample r's input row, for the caller to fill before
// Forward.
func (t *Tape) In(r int) []float64 {
	in := len(t.acts[0]) / t.rows
	return t.acts[0][r*in : (r+1)*in]
}

// OutRow returns sample r's output row.
func (t *Tape) OutRow(r int) []float64 {
	out := len(t.Out) / t.rows
	return t.Out[r*out : (r+1)*out]
}

// OutGrad returns sample r's dL/dOut row, for the caller to fill before
// Backward.
func (t *Tape) OutGrad(r int) []float64 {
	out := len(t.dOut) / t.rows
	return t.dOut[r*out : (r+1)*out]
}

func (m *MLP) checkRows(t *Tape, lo, hi int) error {
	if len(t.acts) != len(m.layers)+1 || len(t.acts[0]) != t.rows*m.layers[0].in || len(t.Out) != t.rows*m.layers[len(m.layers)-1].out {
		return fmt.Errorf("nn: tape was built for another network shape")
	}
	if lo < 0 || lo > hi || hi > t.rows {
		return fmt.Errorf("nn: rows [%d, %d) outside a tape of %d", lo, hi, t.rows)
	}
	return nil
}

// ForwardRows runs samples [lo, hi) of t (their inputs filled through
// In) through the network and records their activations. Rows run
// independently, so a batch may be filled by several calls.
func (m *MLP) ForwardRows(t *Tape, lo, hi int) error {
	if err := m.checkRows(t, lo, hi); err != nil {
		return err
	}
	for i := range m.layers {
		m.layers[i].forward(t.acts[i], t.acts[i+1], lo, hi)
	}
	return nil
}

// BackwardRows accumulates into the parameter gradients the backward
// pass of samples [lo, hi) of t, from the dL/dOut rows filled through
// OutGrad. The weights must be those ForwardRows recorded the rows
// with.
func (m *MLP) BackwardRows(t *Tape, lo, hi int) error {
	if err := m.checkRows(t, lo, hi); err != nil {
		return err
	}
	m.backward(t, lo, hi, false)
	return nil
}

// Forward runs one sample through the network and returns its tape.
func (m *MLP) Forward(x []float64) (*Tape, error) {
	if len(x) != m.layers[0].in {
		return nil, fmt.Errorf("nn: input size %d, want %d", len(x), m.layers[0].in)
	}
	t := m.NewTape(1)
	copy(t.acts[0], x)
	return t, m.ForwardRows(t, 0, 1)
}

// Backward accumulates parameter gradients for the one sample recorded
// on t, given dL/dOut, and returns dL/dInput (valid until t's next
// backward pass).
func (m *MLP) Backward(t *Tape, dOut []float64) []float64 {
	copy(t.OutGrad(0), dOut)
	return m.backward(t, 0, 1, true)
}

// backward runs the backward pass of rows [lo, hi); with inputGrad it
// also computes and returns dL/dInput of the rows.
func (m *MLP) backward(t *Tape, lo, hi int, inputGrad bool) []float64 {
	last := len(m.layers) - 1
	out := m.layers[last].out
	cur, next := t.d[0], t.d[1]
	copy(cur[lo*out:hi*out], t.dOut[lo*out:hi*out])
	for li := last; li >= 0; li-- {
		l := &m.layers[li]
		l.actGrad(cur, t.acts[li+1], lo, hi)
		l.weightGrad(cur, t.acts[li], lo, hi)
		if li == 0 && !inputGrad {
			return nil
		}
		l.inputGrad(cur, next, lo, hi)
		cur, next = next, cur
	}
	return cur[lo*m.layers[0].in : hi*m.layers[0].in]
}

// forward computes rows [lo, hi) of y = act(x·Wᵀ + b), register-blocked
// over tiles of 2 rows × 4 outputs (1 × 4 for a leftover row).
func (l *dense) forward(x, y []float64, lo, hi int) {
	in, out, stride := l.in, l.out, l.in+1
	r := lo
	for ; r+2 <= hi; r += 2 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x1 = x1[:len(x0)]
		y0 := y[r*out : r*out+out]
		y1 := y[(r+1)*out : (r+1)*out+out]
		y1 = y1[:len(y0)]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := l.w[o*stride : o*stride+stride]
			w1 := l.w[(o+1)*stride : (o+1)*stride+stride]
			w2 := l.w[(o+2)*stride : (o+2)*stride+stride]
			w3 := l.w[(o+3)*stride : (o+3)*stride+stride]
			s0, s1, s2, s3 := w0[in], w1[in], w2[in], w3[in]
			t0, t1, t2, t3 := s0, s1, s2, s3
			w0, w1, w2, w3 = w0[:len(x0)], w1[:len(x0)], w2[:len(x0)], w3[:len(x0)]
			for i, a := range x0 {
				b := x1[i]
				p := w0[i]
				s0 += float64(p * a)
				t0 += float64(p * b)
				p = w1[i]
				s1 += float64(p * a)
				t1 += float64(p * b)
				p = w2[i]
				s2 += float64(p * a)
				t2 += float64(p * b)
				p = w3[i]
				s3 += float64(p * a)
				t3 += float64(p * b)
			}
			y0[o], y0[o+1], y0[o+2], y0[o+3] = s0, s1, s2, s3
			y1[o], y1[o+1], y1[o+2], y1[o+3] = t0, t1, t2, t3
		}
		for ; o < out; o++ {
			w := l.w[o*stride : o*stride+stride]
			s := w[in]
			t := s
			w = w[:len(x0)]
			for i, p := range w {
				s += float64(p * x0[i])
				t += float64(p * x1[i])
			}
			y0[o], y1[o] = s, t
		}
	}
	for ; r < hi; r++ {
		x0 := x[r*in : r*in+in]
		y0 := y[r*out : r*out+out]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := l.w[o*stride : o*stride+stride]
			w1 := l.w[(o+1)*stride : (o+1)*stride+stride]
			w2 := l.w[(o+2)*stride : (o+2)*stride+stride]
			w3 := l.w[(o+3)*stride : (o+3)*stride+stride]
			s0, s1, s2, s3 := w0[in], w1[in], w2[in], w3[in]
			w0, w1, w2, w3 = w0[:len(x0)], w1[:len(x0)], w2[:len(x0)], w3[:len(x0)]
			for i, a := range x0 {
				s0 += float64(w0[i] * a)
				s1 += float64(w1[i] * a)
				s2 += float64(w2[i] * a)
				s3 += float64(w3[i] * a)
			}
			y0[o], y0[o+1], y0[o+2], y0[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			w := l.w[o*stride : o*stride+stride]
			s := w[in]
			w = w[:len(x0)]
			for i, a := range x0 {
				s += float64(w[i] * a)
			}
			y0[o] = s
		}
	}
	ys := y[lo*out : hi*out]
	switch l.act {
	case ReLU:
		for i, v := range ys {
			if !(v > 0) {
				ys[i] = 0
			}
		}
	case Tanh:
		for i, v := range ys {
			ys[i] = math.Tanh(v)
		}
	}
}

// actGrad turns rows [lo, hi) of d from dL/dOut into dL/dPre in place,
// from the layer's recorded outputs y: ReLU passes where y > 0 (exactly
// where the pre-activation was), Tanh multiplies by 1 − y².
func (l *dense) actGrad(d, y []float64, lo, hi int) {
	ds := d[lo*l.out : hi*l.out]
	ys := y[lo*l.out : hi*l.out]
	ys = ys[:len(ds)]
	switch l.act {
	case ReLU:
		for i, v := range ys {
			if !(v > 0) {
				ds[i] = 0
			}
		}
	case Tanh:
		for i, v := range ys {
			ds[i] *= 1 - float64(v*v)
		}
	}
}

// weightGrad accumulates gW[o][i] += Σ_r d[r][o]·x[r][i] and
// gB[o] += Σ_r d[r][o] over rows [lo, hi) in ascending order, blocked
// over tiles of 2 outputs × 4 rows.
func (l *dense) weightGrad(d, x []float64, lo, hi int) {
	in, out, stride := l.in, l.out, l.in+1
	r := lo
	for ; r+4 <= hi; r += 4 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		dr := d[r*out : (r+4)*out]
		o := 0
		for ; o+2 <= out; o += 2 {
			a0, a1, a2, a3 := dr[o], dr[out+o], dr[2*out+o], dr[3*out+o]
			b0, b1, b2, b3 := dr[o+1], dr[out+o+1], dr[2*out+o+1], dr[3*out+o+1]
			g0 := l.g[o*stride : o*stride+stride]
			g1 := l.g[(o+1)*stride : (o+1)*stride+stride]
			g0[in] = g0[in] + a0 + a1 + a2 + a3
			g1[in] = g1[in] + b0 + b1 + b2 + b3
			g0, g1 = g0[:len(x0)], g1[:len(x0)]
			for i, p := range x0 {
				q, s, u := x1[i], x2[i], x3[i]
				g0[i] = g0[i] + float64(a0*p) + float64(a1*q) + float64(a2*s) + float64(a3*u)
				g1[i] = g1[i] + float64(b0*p) + float64(b1*q) + float64(b2*s) + float64(b3*u)
			}
		}
		for ; o < out; o++ {
			a0, a1, a2, a3 := dr[o], dr[out+o], dr[2*out+o], dr[3*out+o]
			g0 := l.g[o*stride : o*stride+stride]
			g0[in] = g0[in] + a0 + a1 + a2 + a3
			g0 = g0[:len(x0)]
			for i, p := range x0 {
				g0[i] = g0[i] + float64(a0*p) + float64(a1*x1[i]) + float64(a2*x2[i]) + float64(a3*x3[i])
			}
		}
	}
	for ; r < hi; r++ {
		x0 := x[r*in : r*in+in]
		dr := d[r*out : r*out+out]
		for o, a := range dr {
			g0 := l.g[o*stride : o*stride+stride]
			g0[in] += a
			g0 = g0[:len(x0)]
			for i, p := range x0 {
				g0[i] += float64(a * p)
			}
		}
	}
}

// inputGrad computes dIn[r][i] = Σ_o d[r][o]·W[o][i] for rows [lo, hi),
// o ascending from zero, blocked over tiles of 2 rows × 4 outputs.
func (l *dense) inputGrad(d, dIn []float64, lo, hi int) {
	in, out, stride := l.in, l.out, l.in+1
	clear(dIn[lo*in : hi*in])
	r := lo
	for ; r+2 <= hi; r += 2 {
		e0 := dIn[r*in : r*in+in]
		e1 := dIn[(r+1)*in : (r+1)*in+in]
		e1 = e1[:len(e0)]
		d0 := d[r*out : r*out+out]
		d1 := d[(r+1)*out : (r+1)*out+out]
		d1 = d1[:len(d0)]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := l.w[o*stride : o*stride+in]
			w1 := l.w[(o+1)*stride : (o+1)*stride+in]
			w2 := l.w[(o+2)*stride : (o+2)*stride+in]
			w3 := l.w[(o+3)*stride : (o+3)*stride+in]
			w0, w1, w2, w3 = w0[:len(e0)], w1[:len(e0)], w2[:len(e0)], w3[:len(e0)]
			a0, a1, a2, a3 := d0[o], d0[o+1], d0[o+2], d0[o+3]
			b0, b1, b2, b3 := d1[o], d1[o+1], d1[o+2], d1[o+3]
			for i := range e0 {
				p, q, s, u := w0[i], w1[i], w2[i], w3[i]
				e0[i] = e0[i] + float64(a0*p) + float64(a1*q) + float64(a2*s) + float64(a3*u)
				e1[i] = e1[i] + float64(b0*p) + float64(b1*q) + float64(b2*s) + float64(b3*u)
			}
		}
		for ; o < out; o++ {
			w := l.w[o*stride : o*stride+in]
			w = w[:len(e0)]
			a, b := d0[o], d1[o]
			for i, p := range w {
				e0[i] += float64(a * p)
				e1[i] += float64(b * p)
			}
		}
	}
	for ; r < hi; r++ {
		e0 := dIn[r*in : r*in+in]
		for o, a := range d[r*out : r*out+out] {
			w := l.w[o*stride : o*stride+in]
			w = w[:len(e0)]
			for i, p := range w {
				e0[i] += float64(a * p)
			}
		}
	}
}

// ZeroGrad clears accumulated gradients.
func (m *MLP) ZeroGrad() { clear(m.grads) }

// ScaleGrad multiplies all accumulated gradients by s (e.g. to average
// over a batch before stepping).
func (m *MLP) ScaleGrad(s float64) {
	for i := range m.grads {
		m.grads[i] *= s
	}
}

// ClipGrad scales gradients so their global L2 norm is at most c.
func (m *MLP) ClipGrad(c float64) {
	var sq float64
	for _, g := range m.grads {
		sq += float64(g * g)
	}
	norm := math.Sqrt(sq)
	if norm <= c || norm == 0 {
		return
	}
	m.ScaleGrad(c / norm)
}

// Softmax writes the softmax distribution of logits into dst
// (numerically stabilized); dst and logits have the same length.
func Softmax(dst, logits []float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	dst = dst[:len(logits)]
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// SampleCategorical draws an index from the distribution.
func SampleCategorical(probs []float64, rng Rand) int {
	u := rng.Float64()
	var c float64
	for i, p := range probs {
		c += p
		if u < c {
			return i
		}
	}
	return len(probs) - 1
}

// LogProb returns log(probs[idx]) guarded against zero.
func LogProb(probs []float64, idx int) float64 {
	p := probs[idx]
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

// Entropy returns the Shannon entropy of the distribution.
func Entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 1e-12 {
			h -= float64(p * math.Log(p))
		}
	}
	return h
}

// SoftmaxBackward writes into d the gradient, with respect to the
// logits, of L = −coef·log p[action] where p = Softmax(logits):
// d[i] = coef·(p[i] − 1{i = action}). A policy-gradient loss passes the
// advantage as coef.
func SoftmaxBackward(d, probs []float64, action int, coef float64) {
	d = d[:len(probs)]
	for i, p := range probs {
		d[i] = coef * p
	}
	d[action] -= coef
}

// EntropyBackward adds to d the gradient, with respect to the logits,
// of the entropy bonus L = −beta·H(p) where p = Softmax(logits):
// d[i] += beta·p[i]·(log p[i] + H(p)). Descending L raises the entropy.
func EntropyBackward(d, probs []float64, beta float64) {
	h := Entropy(probs)
	d = d[:len(probs)]
	for i, p := range probs {
		lp := math.Log(math.Max(p, 1e-12))
		d[i] += float64(beta * p * (lp + h))
	}
}
