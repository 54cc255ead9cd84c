package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"magma"
	"magma/internal/m3e"
	"magma/internal/serve"
	"magma/internal/sim"
)

// checker re-verifies every schedule the program returned.
//
//   - An answer must hold one schedule per group of its request.
//   - The mapping must pass sim.Validator for its group and platform.
//   - Re-simulating it on its group's table must give exactly the
//     reported fitness, makespan, throughput and energy.
type checker struct {
	v        sim.Validator
	probs    map[string][]*m3e.Problem // request body → one problem per group
	failures []string
}

func newChecker() *checker {
	return &checker{probs: map[string][]*m3e.Problem{}}
}

func (c *checker) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	} else if len(c.failures) == 20 {
		c.failures = append(c.failures, "further check failures omitted")
	}
}

// problems returns the analysis table of every group of a request body,
// building them on first use.
func (c *checker) problems(body []byte) ([]*m3e.Problem, error) {
	if ps, ok := c.probs[string(body)]; ok {
		return ps, nil
	}
	var req serve.OptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	wl, pf, err := serve.ResolveTarget(&req)
	if err != nil {
		return nil, err
	}
	ps := make([]*m3e.Problem, len(wl.Groups))
	for gi, g := range wl.Groups {
		if ps[gi], err = m3e.NewProblem(g, pf, m3e.Throughput); err != nil {
			return nil, err
		}
	}
	c.probs[string(body)] = ps
	return ps, nil
}

// schedule checks one returned schedule against its problem. It reports
// whether every check passed.
func (c *checker) schedule(label string, p *m3e.Problem, queues [][]int, fitness, makespan, throughput, energy float64) bool {
	m := sim.Mapping{Queues: queues}
	if err := c.v.Validate(m, p.NumJobs(), p.NumAccels()); err != nil {
		c.failf("%s: invalid mapping: %v", label, err)
		return false
	}
	fit, res, err := p.EvaluateMapping(m)
	if err != nil {
		c.failf("%s: re-simulation failed: %v", label, err)
		return false
	}
	if fit != fitness || res.TotalCycles != makespan || res.ThroughputGFLOPs != throughput || res.Energy != energy {
		c.failf("%s: re-simulated (fitness %v, makespan %v, throughput %v, energy %v) != reported (%v, %v, %v, %v)",
			label, fit, res.TotalCycles, res.ThroughputGFLOPs, res.Energy, fitness, makespan, throughput, energy)
		return false
	}
	return true
}

// response checks one served /optimize answer: one schedule per group of
// the request, in group order, each passing schedule.
func (c *checker) response(label string, body []byte, groups []serve.GroupSchedule) bool {
	probs, err := c.problems(body)
	if err != nil {
		c.failf("%s: %v", label, err)
		return false
	}
	if len(groups) != len(probs) {
		c.failf("%s: %d groups in the answer, the request has %d", label, len(groups), len(probs))
		return false
	}
	ok := true
	for gi, g := range groups {
		if g.Index != gi {
			c.failf("%s: group %d carries index %d", label, gi, g.Index)
			ok = false
			continue
		}
		if !c.schedule(fmt.Sprintf("%s group %d", label, gi), probs[gi], g.Queues, g.Fitness, g.MakespanCycles, g.ThroughputGFLOPs, g.EnergyUnits) {
			ok = false
		}
	}
	return ok
}

// librarySchedule checks a schedule returned by the library API.
func (c *checker) librarySchedule(label string, p *m3e.Problem, s magma.Schedule) bool {
	return c.schedule(label, p, s.Mapping.Queues, s.Fitness, s.MakespanCycles, s.ThroughputGFLOPs, s.EnergyUnits)
}

// results is a run's results digest and quality figure. A workload folds
// in only schedules whose requests do not depend on timing — never those
// of ladder rungs above the reference rate, which a run reaches or not
// depending on how fast the program is — so both are fixed for a seed
// and --seconds.
//
// The digest is a hash over the queues and fitness bits of every folded
// schedule in order, so two builds that return the same schedules print
// the same digest.
type results struct {
	h      hash.Hash64
	logSum float64
	n      int
}

func newResults() *results { return &results{h: fnv.New64a()} }

func (r *results) add(queues [][]int, fitness, throughput float64) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		r.h.Write(buf[:])
	}
	put(uint64(len(queues)))
	for _, q := range queues {
		put(uint64(len(q)))
		for _, j := range q {
			put(uint64(j))
		}
	}
	put(math.Float64bits(fitness))
	if throughput > 0 {
		r.logSum += math.Log(throughput)
	}
	r.n++
}

// Digest is the hex digest over every schedule folded in so far.
func (r *results) Digest() string { return fmt.Sprintf("%016x", r.h.Sum64()) }

// GeomeanGFLOPs is the geometric mean of the simulated throughput of
// every schedule folded in so far.
func (r *results) GeomeanGFLOPs() float64 {
	if r.n == 0 {
		return 0
	}
	return math.Exp(r.logSum / float64(r.n))
}

// servedResponse is the part of an /optimize reply the checks read.
// RawGroups keeps the exact bytes for the repeat-identity check.
type servedResponse struct {
	RawGroups json.RawMessage       `json:"groups"`
	Cache     serve.CacheJSON       `json:"cache"`
	Partial   bool                  `json:"partial"`
	Groups    []serve.GroupSchedule `json:"-"`
}

func decodeResponse(body []byte) (servedResponse, error) {
	var r servedResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, err
	}
	if err := json.Unmarshal(r.RawGroups, &r.Groups); err != nil {
		return r, err
	}
	return r, nil
}
