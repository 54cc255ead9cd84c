package rl

import (
	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/nn"
	"magma/internal/rng"
)

// A2CConfig holds the A2C hyper-parameters (Table IV defaults when zero).
type A2CConfig struct {
	LR          float64 // RMSProp learning rate, default 7e-4
	Gamma       float64 // discount factor, default 0.99
	Hidden      int     // MLP width, default 128
	EntropyBeta float64 // entropy-bonus strength, default 0.01
	ValueCoef   float64 // critic-loss weight, default 0.5
	EpisodesPer int     // episodes per update batch, default 5
	GradClip    float64 // global-norm clip, default 0.5
}

func (c A2CConfig) withDefaults() A2CConfig {
	if c.LR <= 0 {
		c.LR = 7e-4
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.99
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
	if c.GradClip <= 0 {
		c.GradClip = 0.5
	}
	return c
}

// A2C is the Advantage Actor-Critic mapper.
type A2C struct {
	cfg  A2CConfig
	core core
	popt *nn.RMSProp
	vopt *nn.RMSProp
}

// NewA2C builds an A2C optimizer.
func NewA2C(cfg A2CConfig) *A2C { return &A2C{cfg: cfg.withDefaults()} }

// Name implements m3e.Optimizer.
func (o *A2C) Name() string { return "RL A2C" }

// Init implements m3e.Optimizer.
func (o *A2C) Init(p *m3e.Problem, rng *rng.Stream) error {
	if err := o.core.init(p, rng, o.cfg.Hidden, o.cfg.EpisodesPer); err != nil {
		return err
	}
	o.popt = nn.NewRMSProp(o.cfg.LR)
	o.vopt = nn.NewRMSProp(o.cfg.LR)
	return nil
}

// Ask implements m3e.Optimizer: it samples a batch of episodes.
func (o *A2C) Ask() []encoding.Genome { return o.core.rollout() }

// Tell implements m3e.Optimizer: one actor-critic update over the batch.
// The advantage of each step is its return minus the critic's value.
func (o *A2C) Tell(_ []encoding.Genome, fitness []float64) {
	c := &o.core
	n := c.discount(fitness, o.cfg.Gamma)
	if n == 0 {
		return
	}
	for r := 0; r < n; r++ {
		ret := c.rets[r]
		c.lossGrad(r, ret-c.value(r), o.cfg.EntropyBeta, ret, o.cfg.ValueCoef)
	}
	c.update(n, o.cfg.GradClip, o.popt, o.vopt)
}

var _ m3e.Optimizer = (*A2C)(nil)
