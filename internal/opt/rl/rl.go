// Package rl implements the two reinforcement-learning mappers of
// Table IV: Advantage Actor-Critic (A2C) and Proximal Policy
// Optimization (PPO2), on hand-rolled MLPs (internal/nn).
//
// MDP formulation. One episode constructs one mapping: at step j the
// agent places job j by choosing a joint action (sub-accelerator ×
// priority bucket). The observation concatenates the job's normalized
// no-stall latency and required bandwidth on every core, each core's
// accumulated queue load so far, and the episode progress. The reward
// is zero until the terminal step, which pays the mapping's fitness
// (normalized online); one episode therefore costs exactly one sample
// of the optimization budget, making RL directly comparable with the
// black-box methods at the same budget (§VI-B).
//
// Hyper-parameters follow Table IV: 3×128 MLP policy and critic for
// both; A2C uses RMSProp at lr 7e-4 with discount 0.99; PPO2 uses Adam
// at lr 2.5e-4 with clip 0.2.
package rl

import (
	"math"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/nn"
	"magma/internal/rng"
)

// PriorityBuckets discretizes the priority genome for the action space.
const PriorityBuckets = 10

// core is the state shared by both RL mappers: the networks, the
// reward statistics, and the rollout of the last Ask.
//
// The rollout is a batch of episodes, one tape row per step, episode
// after episode. Ask records each step's observation and both networks'
// activations in its row; Tell backpropagates the rows in one batched
// pass. m3e.Run strictly alternates Ask and Tell, so the weights Tell
// starts from are the ones Ask recorded the rows with, and Tell needs
// no forward pass of its own until a step moves them.
type core struct {
	p       *m3e.Problem
	rng     *rng.Stream
	nJobs   int
	nAccels int
	obsDim  int
	actDim  int

	policy *nn.MLP
	critic *nn.MLP

	// Normalization constants from the analysis table.
	maxCycles float64
	maxBW     float64

	// Online reward normalization.
	rewardCount, rewardMean, rewardM2 float64

	ptape, vtape *nn.Tape  // policy and critic activations per step
	probs        []float64 // rows × actDim: the policy's distribution per step
	actions      []int     // the sampled action per step
	rets         []float64 // the discounted return per step
	load         []float64 // per-core queue load of the running episode
	episodesPer  int       // episodes per rollout
	episodes     int       // episodes in the current rollout
}

func (c *core) init(p *m3e.Problem, rng *rng.Stream, hidden, episodesPer int) error {
	c.p = p
	c.rng = rng
	c.nJobs = p.NumJobs()
	c.nAccels = p.NumAccels()
	c.obsDim = 3*c.nAccels + 1
	c.actDim = c.nAccels * PriorityBuckets
	c.maxCycles, c.maxBW = 1, 1
	for j := 0; j < c.nJobs; j++ {
		for a := 0; a < c.nAccels; a++ {
			e := p.Table.At(j, a)
			if f := float64(e.Cycles); f > c.maxCycles {
				c.maxCycles = f
			}
			if e.BWPerCycle > c.maxBW {
				c.maxBW = e.BWPerCycle
			}
		}
	}
	var err error
	c.policy, err = nn.NewMLP([]int{c.obsDim, hidden, hidden, hidden, c.actDim}, nn.Tanh, rng)
	if err != nil {
		return err
	}
	c.critic, err = nn.NewMLP([]int{c.obsDim, hidden, hidden, hidden, 1}, nn.Tanh, rng)
	if err != nil {
		return err
	}
	rows := episodesPer * c.nJobs
	c.ptape, c.vtape = c.policy.NewTape(rows), c.critic.NewTape(rows)
	c.probs = make([]float64, rows*c.actDim)
	c.actions = make([]int, rows)
	c.rets = make([]float64, rows)
	c.load = make([]float64, c.nAccels)
	c.episodesPer, c.episodes = episodesPer, 0
	return nil
}

// observe writes into obs the step-j observation given the per-core
// loads accumulated so far (in no-stall cycles).
func (c *core) observe(obs []float64, j int, load []float64) {
	var maxLoad float64 = 1
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	for a := 0; a < c.nAccels; a++ {
		e := c.p.Table.At(j, a)
		obs[a] = float64(e.Cycles) / c.maxCycles
		obs[c.nAccels+a] = e.BWPerCycle / c.maxBW
		obs[2*c.nAccels+a] = load[a] / maxLoad
	}
	obs[3*c.nAccels] = float64(j) / float64(c.nJobs)
}

// rollout samples a batch of episodes from the current policy, each one
// mapping, recording every step in its tape row.
func (c *core) rollout() []encoding.Genome {
	out := make([]encoding.Genome, c.episodesPer)
	for e := range out {
		g := encoding.Genome{Accel: make([]int, c.nJobs), Prio: make([]float64, c.nJobs)}
		clear(c.load)
		for j := 0; j < c.nJobs; j++ {
			r := e*c.nJobs + j
			obs := c.ptape.In(r)
			c.observe(obs, j, c.load)
			copy(c.vtape.In(r), obs)
			if err := c.policy.ForwardRows(c.ptape, r, r+1); err != nil {
				m3e.AbortRun(err)
			}
			probs := c.probRow(r)
			nn.Softmax(probs, c.ptape.OutRow(r))
			action := nn.SampleCategorical(probs, c.rng)
			if err := c.critic.ForwardRows(c.vtape, r, r+1); err != nil {
				m3e.AbortRun(err)
			}
			a := action / PriorityBuckets
			b := action % PriorityBuckets
			g.Accel[j] = a
			g.Prio[j] = (float64(b) + 0.5) / PriorityBuckets
			c.load[a] += float64(c.p.Table.At(j, a).Cycles)
			c.actions[r] = action
		}
		out[e] = g
	}
	c.episodes = len(out)
	return out
}

func (c *core) probRow(r int) []float64 { return c.probs[r*c.actDim : (r+1)*c.actDim] }

// value is the critic's output for step r.
func (c *core) value(r int) float64 { return c.vtape.Out[r] }

// forward re-runs steps [0, n) through both networks with the current
// weights and refreshes their distributions.
func (c *core) forward(n int) {
	if err := c.policy.ForwardRows(c.ptape, 0, n); err != nil {
		m3e.AbortRun(err)
	}
	if err := c.critic.ForwardRows(c.vtape, 0, n); err != nil {
		m3e.AbortRun(err)
	}
	for r := 0; r < n; r++ {
		nn.Softmax(c.probRow(r), c.ptape.OutRow(r))
	}
}

// discount turns the told fitness of each rollout episode into its
// normalized terminal reward and fills the per-step discounted returns.
// It returns the number of steps told: a budget-truncated batch tells
// only a prefix of the episodes.
func (c *core) discount(fitness []float64, gamma float64) int {
	n := min(len(fitness), c.episodes)
	for e := 0; e < n; e++ {
		returns(c.rets[e*c.nJobs:(e+1)*c.nJobs], gamma, c.normalizeReward(fitness[e]))
	}
	return n * c.nJobs
}

// lossGrad writes step r's output gradients: for the policy, the
// policy-gradient loss −coef·log p[action] plus the entropy bonus of
// strength beta; for the critic, the squared error towards ret weighted
// by valueCoef.
func (c *core) lossGrad(r int, coef, beta, ret, valueCoef float64) {
	d, probs := c.ptape.OutGrad(r), c.probRow(r)
	nn.SoftmaxBackward(d, probs, c.actions[r], coef)
	nn.EntropyBackward(d, probs, beta)
	c.vtape.OutGrad(r)[0] = 2 * valueCoef * (c.value(r) - ret)
}

// update backpropagates steps [0, n) through both networks, averages
// the gradients over the steps, clips them to a global norm of clip and
// steps both optimizers.
func (c *core) update(n int, clip float64, popt, vopt nn.Optimizer) {
	c.policy.ZeroGrad()
	c.critic.ZeroGrad()
	if err := c.policy.BackwardRows(c.ptape, 0, n); err != nil {
		m3e.AbortRun(err)
	}
	if err := c.critic.BackwardRows(c.vtape, 0, n); err != nil {
		m3e.AbortRun(err)
	}
	steps := float64(n)
	c.policy.ScaleGrad(1 / steps)
	c.critic.ScaleGrad(1 / steps)
	c.policy.ClipGrad(clip)
	c.critic.ClipGrad(clip)
	popt.Step(c.policy)
	vopt.Step(c.critic)
}

// normalizeReward keeps a running mean/variance of raw fitness and
// returns the standardized value (Welford's algorithm).
func (c *core) normalizeReward(f float64) float64 {
	if math.IsInf(f, -1) {
		f = c.rewardMean - 3*c.rewardStd() // constraint-violating sample
	}
	c.rewardCount++
	delta := f - c.rewardMean
	c.rewardMean += delta / c.rewardCount
	c.rewardM2 += delta * (f - c.rewardMean)
	std := c.rewardStd()
	return (f - c.rewardMean) / std
}

func (c *core) rewardStd() float64 {
	if c.rewardCount < 2 {
		return 1
	}
	v := c.rewardM2 / (c.rewardCount - 1)
	if v < 1e-12 {
		return 1e-6
	}
	return math.Sqrt(v)
}

// returns writes the discounted per-step returns of an episode of
// len(out) steps with a terminal-only reward.
func returns(out []float64, gamma, terminal float64) {
	r := terminal
	for t := len(out) - 1; t >= 0; t-- {
		out[t] = r
		r *= gamma
	}
}
