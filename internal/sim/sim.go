// Package sim executes a decoded mapping on a multi-core accelerator:
// it implements the BW Allocator of Algorithm 1 and derives the
// throughput objective M3E optimizes (§IV-D1).
//
// The execution model: each sub-accelerator runs its assigned jobs in
// priority order. At any instant, the set of live jobs shares the system
// bandwidth. A job's outstanding demand is (no-stall latency × required
// BW); granting it less than its required bandwidth stretches it
// proportionally (the memory-bound roofline). Whenever any live job
// finishes, its sub-accelerator fetches its next job and the allocator
// re-divides the system bandwidth in the ratio of the live jobs'
// requirements — exactly the time-frame loop of Algorithm 1.
package sim

import (
	"fmt"

	"magma/internal/analyzer"
)

// Mapping is a decoded global mapping: one ordered job queue per
// sub-accelerator (Fig. 4a).
type Mapping struct {
	Queues [][]int // Queues[a] = job IDs in execution order on accel a
}

// Validate checks that the mapping is a permutation of jobs 0..nJobs-1
// spread over nAccels queues.
func (m Mapping) Validate(nJobs, nAccels int) error {
	return m.validate(nJobs, nAccels, make([]bool, nJobs))
}

// Validator is a reusable Mapping checker: it owns the seen-marker
// scratch that the one-shot Validate allocates per call, so request
// paths that validate many mappings (the HTTP server, the CLI compare
// loop) can amortize it to zero steady-state allocations — the same
// discipline the Simulator applies to its own validate pass. A
// Validator must not be shared between goroutines; pool them (one per
// request, or sync.Pool) instead.
type Validator struct {
	seen []bool
}

// Validate checks m exactly like Mapping.Validate, reusing the
// Validator's scratch.
func (v *Validator) Validate(m Mapping, nJobs, nAccels int) error {
	v.seen = grow(v.seen, nJobs)
	return m.validate(nJobs, nAccels, v.seen)
}

// validate is Validate with a caller-owned scratch marker slice (len
// nJobs), so a reusable Simulator can validate without allocating.
func (m Mapping) validate(nJobs, nAccels int, seen []bool) error {
	if len(m.Queues) != nAccels {
		return fmt.Errorf("sim: mapping has %d queues, platform has %d accels", len(m.Queues), nAccels)
	}
	for i := range seen {
		seen[i] = false
	}
	count := 0
	for a, q := range m.Queues {
		for _, j := range q {
			if j < 0 || j >= nJobs {
				return fmt.Errorf("sim: queue %d references job %d (nJobs=%d)", a, j, nJobs)
			}
			if seen[j] {
				return fmt.Errorf("sim: job %d scheduled twice", j)
			}
			seen[j] = true
			count++
		}
	}
	if count != nJobs {
		return fmt.Errorf("sim: mapping schedules %d of %d jobs", count, nJobs)
	}
	return nil
}

// JobRun records one job's execution window.
type JobRun struct {
	JobID      int
	AccelID    int
	Start, End float64 // cycles
}

// Frame is one bandwidth-allocation time frame: between consecutive job
// boundaries the allocation is constant (Fig. 4b).
type Frame struct {
	Start, End float64   // cycles
	JobID      []int     // per accel: live job ID, or -1 if idle
	AllocBW    []float64 // per accel: allocated bytes/cycle
}

// Result is the outcome of executing one mapping.
type Result struct {
	TotalCycles      float64
	Seconds          float64
	ThroughputGFLOPs float64
	Energy           float64   // job energy + leakage × makespan
	BusyCycles       []float64 // per-core cycles spent running jobs
	JobRuns          []JobRun
	Frames           []Frame
}

// CoreUtilization returns the fraction of the makespan each core spent
// busy.
func (r Result) CoreUtilization() []float64 {
	out := make([]float64, len(r.BusyCycles))
	if r.TotalCycles <= 0 {
		return out
	}
	for i, b := range r.BusyCycles {
		out[i] = b / r.TotalCycles
	}
	return out
}

// leakagePerPEPerCycle is the static-power term that makes energy (and
// hence EDP) mapping-dependent: idling cores still burn power until the
// group completes.
const leakagePerPEPerCycle = 0.05

// live is the in-flight job state of one sub-accelerator.
type live struct {
	job    int
	work   float64 // outstanding demand: remaining latency × reqBW
	req    float64 // required bytes/cycle
	noBW   float64 // remaining cycles for jobs with ~zero BW demand
	start  float64
	active bool
}

// allocate divides the system bandwidth among the live jobs according
// to the policy, writing per-core grants into alloc.
func allocate(state []live, alloc []float64, sysBW float64, policy Policy) {
	allocateScratch(state, alloc, sysBW, policy, nil)
}

// allocateScratch is allocate with a caller-owned scratch slice for the
// WaterFill worklist (Proportional never needs it). It returns the
// possibly-grown scratch so the caller can keep it for the next frame.
func allocateScratch(state []live, alloc []float64, sysBW float64, policy Policy, scratch []int) []int {
	// Invariant: an inactive slot always carries req == 0 (launch installs
	// the idle sentinel live{job: -1}), so summing and scaling can run
	// branch-free over every slot — inactive cores contribute 0 to the sum
	// and receive 0*scale. Adding 0.0 and multiplying 0.0 are exact, so
	// the result is bit-identical to the branchy per-slot active checks.
	var sumReq float64
	for a := range state {
		sumReq += state[a].req
	}
	if sumReq <= sysBW || policy == Proportional {
		// Unsaturated frames grant every requirement (scale 1, exact);
		// saturated Proportional frames scale uniformly by sysBW/Σreq —
		// one multiply per slot, no branches in the loop.
		scale := 1.0
		if sumReq > sysBW {
			scale = sysBW / sumReq
		}
		for a := range state {
			alloc[a] = state[a].req * scale
		}
		return scratch
	}
	for a := range state {
		alloc[a] = 0
	}
	// Max-min water-filling capped at each job's requirement: repeatedly
	// grant jobs whose requirement fits under the fair share of the
	// remaining bandwidth; split the rest evenly among the still-hungry.
	remaining := sysBW
	if cap(scratch) < len(state) {
		scratch = make([]int, 0, len(state))
	}
	unsat := scratch[:0]
	for a := range state {
		if state[a].active && state[a].req > 1e-12 {
			unsat = append(unsat, a)
		}
	}
	for len(unsat) > 0 {
		fair := remaining / float64(len(unsat))
		progressed := false
		keep := unsat[:0]
		for _, a := range unsat {
			if state[a].req <= fair {
				alloc[a] = state[a].req
				remaining -= state[a].req
				progressed = true
			} else {
				keep = append(keep, a)
			}
		}
		unsat = keep
		if !progressed {
			fair = remaining / float64(len(unsat))
			for _, a := range unsat {
				alloc[a] = fair
			}
			return scratch
		}
	}
	return scratch
}

// allocateLive is the WaterFill allocator over a dense live set: the
// same max-min water-filling as allocateScratch, but summing and
// granting only the accels in liveIdx instead of sweeping every slot.
// Iteration runs in live-set order (swap-remove scrambles it), so the
// float sums can differ from the accel-order sweep in low-order bits —
// the v2 kernel's documented tolerance-level divergence from v1.
func allocateLive(state []live, liveIdx []int, alloc []float64, sysBW float64, scratch []int) []int {
	var sumReq float64
	for _, a := range liveIdx {
		sumReq += state[a].req
	}
	if sumReq <= sysBW {
		for _, a := range liveIdx {
			alloc[a] = state[a].req
		}
		return scratch
	}
	for _, a := range liveIdx {
		alloc[a] = 0
	}
	remaining := sysBW
	if cap(scratch) < len(liveIdx) {
		scratch = make([]int, 0, len(liveIdx))
	}
	unsat := scratch[:0]
	for _, a := range liveIdx {
		if state[a].req > 1e-12 {
			unsat = append(unsat, a)
		}
	}
	for len(unsat) > 0 {
		fair := remaining / float64(len(unsat))
		progressed := false
		keep := unsat[:0]
		for _, a := range unsat {
			if state[a].req <= fair {
				alloc[a] = state[a].req
				remaining -= state[a].req
				progressed = true
			} else {
				keep = append(keep, a)
			}
		}
		unsat = keep
		if !progressed {
			fair = remaining / float64(len(unsat))
			for _, a := range unsat {
				alloc[a] = fair
			}
			return scratch
		}
	}
	return scratch
}

// Policy selects how the allocator divides the system bandwidth when
// the live jobs' requirements exceed it.
type Policy uint8

const (
	// Proportional (default) is the literal Algorithm 1 rule:
	// allocations scale by req_i/Σreq, so under saturation every live
	// job — including compute-bound ones that asked for almost nothing —
	// stretches by the same Σreq/BWsys factor. This coupling is the
	// mechanism the mapper exploits: staggering BW-hungry jobs across
	// time keeps Σreq under BWsys so nothing stalls (the Fig. 15
	// behaviour), while naive mappings co-schedule hungry and
	// compute-bound jobs and stall everything.
	Proportional Policy = iota
	// WaterFill is max-min fairness capped at each job's requirement:
	// compute-bound jobs always run at no-stall speed and only
	// BW-hungry jobs stall. A work-conserving alternative kept for the
	// allocator-policy ablation (BenchmarkAblationAllocator).
	WaterFill
)

// KernelVersion is the simulator's numeric-behaviour version. The v2
// kernel reorders floating-point arithmetic, so fitness values differ
// from v1 in low-order bits; persisted fitness memos are only valid
// under the kernel that produced them, and internal/persist embeds
// this constant in the snapshot header so stale snapshots are rejected
// whole (the same one-time-break discipline as rng.Layout).
const KernelVersion = 2

// Options tunes the simulator.
type Options struct {
	CaptureFrames bool   // record per-frame BW allocations (Fig. 15)
	Policy        Policy // bandwidth division rule under saturation
}

// Run executes the mapping against the job analysis table. It is a
// convenience wrapper over Simulator for one-shot callers: every call
// allocates fresh buffers, so the returned Result is caller-owned. Hot
// loops (the M3E evaluation engine) hold a Simulator instead and reuse
// its scratch across calls.
func Run(t *analyzer.Table, m Mapping, opt Options) (Result, error) {
	return NewSimulator(opt).Run(t, m)
}

// NoStallLowerBound returns the idealized makespan (cycles) if bandwidth
// were unlimited: the maximum per-queue sum of no-stall latencies. It is
// a useful sanity bound: Run can never beat it.
func NoStallLowerBound(t *analyzer.Table, m Mapping) float64 {
	var worst float64
	for a, q := range m.Queues {
		var sum float64
		for _, j := range q {
			sum += float64(t.At(j, a).Cycles)
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst
}
