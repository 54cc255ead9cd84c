package rl

import (
	"math"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/nn"
	"magma/internal/rng"
)

// PPOConfig holds the PPO2 hyper-parameters (Table IV defaults when zero).
type PPOConfig struct {
	LR          float64 // Adam learning rate, default 2.5e-4
	Gamma       float64 // discount factor, default 0.99
	Clip        float64 // ratio clipping range, default 0.2
	Hidden      int     // MLP width, default 128
	EntropyBeta float64 // entropy-bonus strength, default 0.01
	ValueCoef   float64 // critic-loss weight, default 0.5
	EpisodesPer int     // episodes per rollout buffer, default 5
	Epochs      int     // optimization epochs per buffer, default 4
	GradClip    float64 // global-norm clip, default 0.5
}

func (c PPOConfig) withDefaults() PPOConfig {
	if c.LR <= 0 {
		c.LR = 2.5e-4
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.99
	}
	if c.Clip <= 0 {
		c.Clip = 0.2
	}
	if c.Hidden <= 0 {
		c.Hidden = 128
	}
	if c.EntropyBeta <= 0 {
		c.EntropyBeta = 0.01
	}
	if c.ValueCoef <= 0 {
		c.ValueCoef = 0.5
	}
	if c.EpisodesPer <= 0 {
		c.EpisodesPer = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.GradClip <= 0 {
		c.GradClip = 0.5
	}
	return c
}

// PPO is the PPO2 mapper (clipped surrogate objective).
type PPO struct {
	cfg     PPOConfig
	core    core
	popt    *nn.Adam
	vopt    *nn.Adam
	oldLogP []float64 // per step: log-probability of the action when sampled
	adv     []float64 // per step: standardized advantage
}

// NewPPO builds a PPO2 optimizer.
func NewPPO(cfg PPOConfig) *PPO { return &PPO{cfg: cfg.withDefaults()} }

// Name implements m3e.Optimizer.
func (o *PPO) Name() string { return "RL PPO2" }

// Init implements m3e.Optimizer.
func (o *PPO) Init(p *m3e.Problem, rng *rng.Stream) error {
	if err := o.core.init(p, rng, o.cfg.Hidden, o.cfg.EpisodesPer); err != nil {
		return err
	}
	o.popt = nn.NewAdam(o.cfg.LR)
	o.vopt = nn.NewAdam(o.cfg.LR)
	rows := o.cfg.EpisodesPer * o.core.nJobs
	o.oldLogP = make([]float64, rows)
	o.adv = make([]float64, rows)
	return nil
}

// Ask implements m3e.Optimizer.
func (o *PPO) Ask() []encoding.Genome { return o.core.rollout() }

// Tell implements m3e.Optimizer: several epochs of the clipped
// surrogate update over the rollout buffer.
func (o *PPO) Tell(_ []encoding.Genome, fitness []float64) {
	c := &o.core
	n := c.discount(fitness, o.cfg.Gamma)
	if n == 0 {
		return
	}
	for r := 0; r < n; r++ {
		o.oldLogP[r] = nn.LogProb(c.probRow(r), c.actions[r])
		o.adv[r] = c.rets[r] - c.value(r)
	}
	// Advantage standardization (stable-baselines PPO2 behaviour).
	adv := o.adv[:n]
	mean, std := meanStd(adv)
	for r := range adv {
		adv[r] = (adv[r] - mean) / (std + 1e-8)
	}

	for ep := 0; ep < o.cfg.Epochs; ep++ {
		if ep > 0 {
			// The last step moved the weights; epoch 0 reuses the
			// rollout's own pass.
			c.forward(n)
		}
		for r := 0; r < n; r++ {
			logP := nn.LogProb(c.probRow(r), c.actions[r])
			ratio := math.Exp(logP - o.oldLogP[r])
			// Clipped surrogate loss L = -min(ratio·adv, clip(ratio)·adv).
			// Gradient flows only through the unclipped branch; there,
			// dL/dlogits = ratio·adv·(p - onehot), i.e. the same form as
			// A2C's -adv·log p[a] gradient with coefficient ratio·adv.
			var coef float64
			clipped := clampRatio(ratio, 1-o.cfg.Clip, 1+o.cfg.Clip)
			if ratio*adv[r] <= clipped*adv[r] {
				coef = ratio * adv[r]
			}
			c.lossGrad(r, coef, o.cfg.EntropyBeta, c.rets[r], o.cfg.ValueCoef)
		}
		c.update(n, o.cfg.GradClip, o.popt, o.vopt)
	}
}

func clampRatio(r, lo, hi float64) float64 {
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}

func meanStd(xs []float64) (float64, float64) {
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	v /= float64(len(xs))
	return m, math.Sqrt(v)
}

var _ m3e.Optimizer = (*PPO)(nil)
