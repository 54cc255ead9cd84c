package nn

import "math"

// Optimizer updates MLP parameters from accumulated gradients.
type Optimizer interface {
	Step(m *MLP)
}

// RMSProp is the optimizer the paper uses for A2C (lr 7e-4). Its state
// follows the parameter layout of the one MLP it steps.
type RMSProp struct {
	LR    float64
	Decay float64 // default 0.99
	Eps   float64 // default 1e-5

	cache []float64 // squared-gradient running mean
}

// NewRMSProp builds an RMSProp optimizer with standard decay.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{LR: lr, Decay: 0.99, Eps: 1e-5}
}

// Step implements Optimizer.
func (r *RMSProp) Step(m *MLP) {
	if len(r.cache) != len(m.params) {
		r.cache = make([]float64, len(m.params))
	}
	c := r.cache
	for i, g := range m.grads {
		c[i] = r.Decay*c[i] + (1-r.Decay)*g*g
		m.params[i] -= r.LR * g / (math.Sqrt(c[i]) + r.Eps)
	}
}

// Adam is the optimizer the paper uses for PPO2 (lr 2.5e-4). Its state
// follows the parameter layout of the one MLP it steps.
type Adam struct {
	LR     float64
	Beta1  float64 // default 0.9
	Beta2  float64 // default 0.999
	Eps    float64 // default 1e-8
	t      int
	m1, m2 []float64 // first and second moment estimates
}

// NewAdam builds an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(m *MLP) {
	if len(a.m1) != len(m.params) {
		a.m1 = make([]float64, len(m.params))
		a.m2 = make([]float64, len(m.params))
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	m1, m2 := a.m1, a.m2
	for i, g := range m.grads {
		m1[i] = a.Beta1*m1[i] + (1-a.Beta1)*g
		m2[i] = a.Beta2*m2[i] + (1-a.Beta2)*g*g
		m.params[i] -= a.LR * (m1[i] / bc1) / (math.Sqrt(m2[i]/bc2) + a.Eps)
	}
}
