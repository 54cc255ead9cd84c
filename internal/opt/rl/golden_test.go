package rl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/nn"
	"magma/internal/opt/opttest"
	"magma/internal/platform"
)

// TestGoldenTrajectories pins A2C and PPO2 at the paper width (3×128)
// across commits: a change to the network kernel, the optimizers or the
// rollout bookkeeping that moves a single bit of either run fails here.
// Same-seed determinism within one build (opttest.Battery) cannot see
// such a change. Over 40 samples a small change to the weights rarely
// flips a sampled action, so the pin also hashes what the trained
// networks output on fixed probe inputs. The values were recorded
// before the batched kernel replaced the per-sample one.
func TestGoldenTrajectories(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 16, platform.S2())
	a2c, ppo := NewA2C(A2CConfig{}), NewPPO(PPOConfig{})
	for _, tc := range []struct {
		name     string
		opt      m3e.Optimizer
		core     *core
		budget   int
		want     opttest.Pin
		wantNets uint64
	}{
		{"A2C", a2c, &a2c.core, 40,
			opttest.Pin{BestFitness: 0x40954e4b388e7eb3, Best: 0x6c837b3ae82fe940, Curve: 0x5f4af38e6b6cace8, Explored: 0x83f57a0ffe6f1d7f},
			0x6041cd0a3598e86f},
		{"PPO2", ppo, &ppo.core, 20,
			opttest.Pin{BestFitness: 0x40804947d42d09d3, Best: 0x956ce2299d5215ad, Curve: 0x1460828fcd724dea, Explored: 0x36af571986810cba},
			0xbbba347bfe5dec12},
	} {
		res, err := m3e.Run(prob, tc.opt, m3e.Options{Budget: tc.budget, RecordSamples: true}, 11)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := opttest.PinOf(res); got != tc.want {
			t.Errorf("%s trajectory moved: got %#v, want %#v", tc.name, got, tc.want)
		}
		if got := netsHash(t, tc.core); got != tc.wantNets {
			t.Errorf("%s trained networks moved: got %#x, want %#x", tc.name, got, tc.wantNets)
		}
	}
}

// netsHash is an FNV-64a hash of the policy and critic outputs on three
// fixed observations.
func netsHash(t *testing.T, c *core) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	x := make([]float64, c.obsDim)
	for probe := 0; probe < 3; probe++ {
		for i := range x {
			x[i] = float64((i+probe)%7) / 7
		}
		for _, m := range []*nn.MLP{c.policy, c.critic} {
			tape, err := m.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range tape.Out {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}
