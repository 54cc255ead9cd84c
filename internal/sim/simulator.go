package sim

import (
	"fmt"
	"math"

	"magma/internal/analyzer"
	"magma/internal/fault"
	"magma/internal/platform"
)

// Simulator is a reusable executor of the Algorithm 1 time-frame loop.
// All working storage — live-job state, bandwidth grants, queue cursors,
// the JobRuns/BusyCycles/Frames of the Result — lives in scratch buffers
// owned by the Simulator, so Run performs zero heap allocations once the
// buffers have grown to the problem size. That makes one Simulator per
// worker the unit of parallel fitness evaluation.
//
// Ownership rule: the slices inside a returned Result alias the
// Simulator's scratch and are only valid until the next Run call on the
// same Simulator. Callers that retain a Result across Runs (or hand it
// to another goroutine) must deep-copy it first; one-shot callers can
// use the package-level Run, which uses a throwaway Simulator and hence
// returns a caller-owned Result. A Simulator must not be shared between
// goroutines.
type Simulator struct {
	opt Options

	state   []live
	alloc   []float64
	next    []int     // per-accel cursor into its queue
	unsat   []int     // WaterFill worklist scratch
	seen    []bool    // Validate scratch
	jobRuns []JobRun  // Result.JobRuns backing
	busy    []float64 // Result.BusyCycles backing
	frames  []Frame   // Result.Frames backing (CaptureFrames only)

	bwHeap  []event // v2 events: pending BW-job completions, virtual time
	nbHeap  []event // v2 events: pending BW-free completions, wall time
	retire  []int   // v2: per-event/per-frame retirement batch
	liveIdx []int   // v2 WaterFill: dense set of active accels
	livePos []int   // v2 WaterFill: accel's index in liveIdx (-1 if idle)

	// Per-table constants, memoized on first Run against a table: the
	// group's total work and the platform's PE count are invariants of
	// the problem, not of the mapping, and walking every job's layer
	// descriptor per simulation dominated the post-loop bookkeeping.
	// The flattened SoA copy of the table rides on the same memo.
	memoTable  *analyzer.Table
	totalFLOPs float64
	totalPEs   float64
	memoBounds *Bounds
	soa        soaTable
}

// soaTable is a flattened structure-of-arrays copy of the analyzer
// table, indexed j*nAccels+a: launch and the energy epilogue walk
// contiguous float64 arrays instead of pointer-chasing t.At through
// Entries[j][a]. work precomputes launch's outstanding-demand product
// with the identical float64(Cycles)×BWPerCycle expression, so kernel
// v1 routed through the SoA stays bit-identical to reading the table.
type soaTable struct {
	nAccels int
	cycles  []float64 // no-stall latency, cycles
	req     []float64 // required bytes/cycle
	work    []float64 // cycles × req — outstanding demand at launch
	energy  []float64 // job energy
}

// event is one pending completion: key is the completion instant on
// the owning heap's clock (virtual time for BW jobs, wall time for
// BW-free jobs); exact key ties order by accel so the heap — and hence
// the retirement sweep — is deterministic.
type event struct {
	key   float64
	accel int
}

func eventLess(a, b event) bool {
	return a.key < b.key || (a.key == b.key && a.accel < b.accel)
}

// heapPush and heapPop are an inlined binary min-heap over the scratch
// slice — no container/heap interface boxing on the hot path.
func heapPush(h []event, e event) []event {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []event) []event {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && eventLess(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && eventLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h
}

// insertionSortInts orders the (almost always single-element)
// retirement batch by accel index without any interface machinery.
func insertionSortInts(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// tableConstants returns the memoized per-table invariants, refreshing
// the memo (including the SoA table copy) when the simulator is
// pointed at a different table.
func (s *Simulator) tableConstants(t *analyzer.Table) (totalFLOPs, totalPEs float64) {
	if s.memoTable != t {
		var pes float64
		for _, sa := range t.Platform.SubAccels {
			pes += float64(sa.Config.PEs())
		}
		s.memoTable, s.totalFLOPs, s.totalPEs = t, float64(t.Group.TotalFLOPs()), pes
		s.memoBounds = nil
		s.buildSoA(t)
	}
	return s.totalFLOPs, s.totalPEs
}

// buildSoA flattens the table into the Simulator's SoA scratch.
func (s *Simulator) buildSoA(t *analyzer.Table) {
	nJobs, nAccels := t.NumJobs(), t.NumAccels()
	n := nJobs * nAccels
	s.soa.nAccels = nAccels
	s.soa.cycles = grow(s.soa.cycles, n)
	s.soa.req = grow(s.soa.req, n)
	s.soa.work = grow(s.soa.work, n)
	s.soa.energy = grow(s.soa.energy, n)
	for j := 0; j < nJobs; j++ {
		row := t.Entries[j]
		base := j * nAccels
		for a := 0; a < nAccels; a++ {
			e := &row[a]
			s.soa.cycles[base+a] = float64(e.Cycles)
			s.soa.req[base+a] = e.BWPerCycle
			s.soa.work[base+a] = float64(e.Cycles) * e.BWPerCycle
			s.soa.energy[base+a] = e.Energy
		}
	}
}

// Bounds returns the memoized analytical-bound constants for the table,
// built on first use and refreshed alongside the other per-table memos
// when the simulator is pointed at a different table.
func (s *Simulator) Bounds(t *analyzer.Table) *Bounds {
	s.tableConstants(t)
	if s.memoBounds == nil {
		s.memoBounds = NewBounds(t)
	}
	return s.memoBounds
}

// NewSimulator builds a reusable simulator with the given options.
func NewSimulator(opt Options) *Simulator { return &Simulator{opt: opt} }

// grow returns s resized to n, reusing the backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// prepare validates the mapping, refreshes the per-table memos (SoA
// included) and resets the scratch shared by every kernel.
func (s *Simulator) prepare(t *analyzer.Table, m Mapping) (nJobs, nAccels int, sysBW float64, err error) {
	nJobs, nAccels = t.NumJobs(), t.NumAccels()
	s.seen = grow(s.seen, nJobs)
	if err = m.validate(nJobs, nAccels, s.seen); err != nil {
		return 0, 0, 0, err
	}
	sysBW = t.Platform.SystemBWBytesPerCycle()
	if sysBW <= 0 {
		return 0, 0, 0, fmt.Errorf("sim: non-positive system BW")
	}
	s.tableConstants(t)
	s.state = grow(s.state, nAccels)
	s.alloc = grow(s.alloc, nAccels)
	s.next = grow(s.next, nAccels)
	for a := 0; a < nAccels; a++ {
		s.next[a] = 0
	}
	if cap(s.jobRuns) < nJobs {
		s.jobRuns = make([]JobRun, 0, nJobs)
	}
	s.jobRuns = s.jobRuns[:0]
	s.frames = s.frames[:0]
	return nJobs, nAccels, sysBW, nil
}

// launch advances accel a's queue cursor and installs its next job as
// the live job at time now (idle sentinel when the queue is drained).
func (s *Simulator) launch(m Mapping, a int, now float64) {
	if s.next[a] < len(m.Queues[a]) {
		j := m.Queues[a][s.next[a]]
		s.next[a]++
		i := j*s.soa.nAccels + a
		st := live{job: j, start: now, active: true, req: s.soa.req[i]}
		if st.req <= 1e-12 {
			st.noBW = s.soa.cycles[i]
		} else {
			st.work = s.soa.work[i]
		}
		s.state[a] = st
		return
	}
	s.state[a] = live{job: -1}
}

// captureFrame appends one frame to the scratch-backed frame list,
// reusing the per-frame slices left over from earlier Runs.
func (s *Simulator) captureFrame(start, end float64, nAccels int) {
	var f Frame
	if n := len(s.frames); n < cap(s.frames) {
		f = s.frames[:n+1][n] // recycle the element's JobID/AllocBW
	}
	f.Start, f.End = start, end
	f.JobID = grow(f.JobID, nAccels)
	f.AllocBW = grow(f.AllocBW, nAccels)
	for a := range s.state {
		if s.state[a].active {
			f.JobID[a] = s.state[a].job
			f.AllocBW[a] = s.alloc[a]
		} else {
			f.JobID[a] = -1
			f.AllocBW[a] = 0
		}
	}
	s.frames = append(s.frames[:len(s.frames)], f)
}

// finish assembles the Result shared by every kernel: per-core busy
// time and job energy folded from the JobRuns (energy via the SoA
// memo), plus the table-level throughput and leakage terms.
func (s *Simulator) finish(now float64, nAccels int) Result {
	s.busy = grow(s.busy, nAccels)
	for a := range s.busy {
		s.busy[a] = 0
	}
	var jobEnergy float64
	for i := range s.jobRuns {
		r := &s.jobRuns[i]
		s.busy[r.AccelID] += r.End - r.Start
		jobEnergy += s.soa.energy[r.JobID*nAccels+r.AccelID]
	}
	res := Result{JobRuns: s.jobRuns, BusyCycles: s.busy, TotalCycles: now}
	if s.opt.CaptureFrames {
		res.Frames = s.frames
	}
	res.Seconds = now / platform.ClockHz
	if res.Seconds > 0 {
		res.ThroughputGFLOPs = s.totalFLOPs / res.Seconds / 1e9
	}
	res.Energy = jobEnergy + leakagePerPEPerCycle*s.totalPEs*res.TotalCycles
	return res
}

// Run executes the mapping against the job analysis table. See the
// Simulator doc comment for the Result ownership rule.
func (s *Simulator) Run(t *analyzer.Table, m Mapping) (Result, error) {
	if err := fault.Hit(fault.SimKernel); err != nil {
		return Result{}, fmt.Errorf("sim: kernel: %w", err)
	}
	if s.opt.Policy == WaterFill {
		return s.runFrames(t, m)
	}
	return s.runEvents(t, m)
}

// runEvents is the Proportional-policy v2 kernel. Derivation: with
// alloc_a = req_a·scale and scale = min(1, sysBW/Σreq), define a
// global virtual clock V with dV = scale·dt. Every live BW job's
// normalized remaining demand work/req then decreases at rate exactly
// 1 in virtual time — regardless of later launches and retirements —
// so its completion instant is the single key kv = V_launch + work/req
// computed at launch. No per-frame bandwidth re-division, no O(accels)
// work-decrement sweep. BW-free jobs progress in wall time and live on
// a second heap keyed kw = now_launch + cycles. Each of the nJobs
// completions costs O(log nAccels) heap work, so a run is
// O(nJobs·log nAccels) after the O(nAccels) setup (plus O(nAccels) per
// event when capturing frames, which hot paths never do).
func (s *Simulator) runEvents(t *analyzer.Table, m Mapping) (Result, error) {
	nJobs, nAccels, sysBW, err := s.prepare(t, m)
	if err != nil {
		return Result{}, err
	}
	s.bwHeap = s.bwHeap[:0]
	s.nbHeap = s.nbHeap[:0]

	now, V := 0.0, 0.0
	// Σreq over every installed job, maintained incrementally (+req at
	// launch, −req at retirement). BW-free jobs contribute their raw
	// (≤1e-12) requirement exactly as in v1's branch-free slot sum.
	var sumReq float64
	for a := 0; a < nAccels; a++ {
		sumReq += s.launchEvent(m, a, now, V)
	}
	remaining := nJobs
	for remaining > 0 {
		if len(s.bwHeap) == 0 && len(s.nbHeap) == 0 {
			return Result{}, fmt.Errorf("sim: no live jobs but %d remaining", remaining)
		}
		scale := 1.0
		if sumReq > sysBW {
			scale = sysBW / sumReq
		}
		// Wall-clock instant of each heap's next completion. Surviving
		// keys sit beyond their clock's tolerance window, so both
		// candidates are in the future: every event advances the clock
		// (or retires a zero-length job) and the loop terminates.
		tBW, tNB := math.Inf(1), math.Inf(1)
		if len(s.bwHeap) > 0 {
			tBW = now + (s.bwHeap[0].key-V)/scale
		}
		if len(s.nbHeap) > 0 {
			tNB = s.nbHeap[0].key
		}
		bwWins := tBW <= tNB
		tNext := tBW
		if !bwWins {
			tNext = tNB
		}
		if s.opt.CaptureFrames {
			for a := range s.state {
				s.alloc[a] = s.state[a].req * scale
			}
			s.captureFrame(now, tNext, nAccels)
		}
		// Advance both clocks. When a BW completion wins, land V exactly
		// on its key instead of integrating scale·dt — no drift between
		// the clock and the keys it is compared against.
		if bwWins {
			V = s.bwHeap[0].key
		} else {
			V += (tNext - now) * scale
		}
		now = tNext
		// Retire everything inside the tolerance window, mirroring v1's
		// frame-boundary checks: work ≤ 1e-6·req ⇔ kv − V ≤ 1e-6, and
		// noBW ≤ 1e-9 ⇔ kw − now ≤ 1e-9.
		s.retire = s.retire[:0]
		for len(s.bwHeap) > 0 && s.bwHeap[0].key <= V+1e-6 {
			s.retire = append(s.retire, s.bwHeap[0].accel)
			s.bwHeap = heapPop(s.bwHeap)
		}
		for len(s.nbHeap) > 0 && s.nbHeap[0].key <= now+1e-9 {
			s.retire = append(s.retire, s.nbHeap[0].accel)
			s.nbHeap = heapPop(s.nbHeap)
		}
		// v1 retires simultaneous completions in its accel-order sweep;
		// sort the batch (almost always length 1) so the JobRuns order
		// is identical under both kernels.
		insertionSortInts(s.retire)
		for _, a := range s.retire {
			st := &s.state[a]
			s.jobRuns = append(s.jobRuns, JobRun{JobID: st.job, AccelID: a, Start: st.start, End: now})
			remaining--
			sumReq -= st.req
			sumReq += s.launchEvent(m, a, now, V)
		}
	}
	return s.finish(now, nAccels), nil
}

// launchEvent advances accel a's queue cursor, installs its next job
// and schedules the completion on the matching heap (virtual clock V
// for BW jobs, wall clock now for BW-free ones). It returns the
// installed job's bandwidth requirement — the caller's incremental
// Σreq update — or 0 for a drained queue.
func (s *Simulator) launchEvent(m Mapping, a int, now, V float64) float64 {
	if s.next[a] >= len(m.Queues[a]) {
		s.state[a] = live{job: -1}
		return 0
	}
	j := m.Queues[a][s.next[a]]
	s.next[a]++
	i := j*s.soa.nAccels + a
	req := s.soa.req[i]
	s.state[a] = live{job: j, start: now, active: true, req: req}
	if req <= 1e-12 {
		s.nbHeap = heapPush(s.nbHeap, event{key: now + s.soa.cycles[i], accel: a})
	} else {
		s.bwHeap = heapPush(s.bwHeap, event{key: V + s.soa.work[i]/req, accel: a})
	}
	return req
}

// runFrames is the WaterFill-policy v2 kernel. Water-filling reprices
// every live job's grant at each frame boundary (each cap depends on
// the whole live profile), so no launch-time completion key exists and
// the exact frame loop is kept; the win here is the dense live set —
// allocation, the min-runtime scan and the progress sweep walk only
// the live accels, so drained or narrow mappings stop paying
// O(nAccels) per frame. Live-set iteration order differs from v1's
// accel-order sweep, which reorders float sums: results agree with v1
// within the retirement tolerances, not bit-for-bit.
func (s *Simulator) runFrames(t *analyzer.Table, m Mapping) (Result, error) {
	nJobs, nAccels, sysBW, err := s.prepare(t, m)
	if err != nil {
		return Result{}, err
	}
	s.liveIdx = s.liveIdx[:0]
	s.livePos = grow(s.livePos, nAccels)
	now := 0.0
	for a := 0; a < nAccels; a++ {
		s.livePos[a] = -1
		s.launch(m, a, now)
		if s.state[a].active {
			s.livePos[a] = len(s.liveIdx)
			s.liveIdx = append(s.liveIdx, a)
		}
	}
	remaining := nJobs
	for remaining > 0 {
		s.unsat = allocateLive(s.state, s.liveIdx, s.alloc, sysBW, s.unsat)
		minRuntime := math.Inf(1)
		for _, a := range s.liveIdx {
			st := &s.state[a]
			var runtime float64
			if st.req <= 1e-12 {
				runtime = st.noBW
			} else {
				runtime = st.work / s.alloc[a]
			}
			if runtime < minRuntime {
				minRuntime = runtime
			}
		}
		if math.IsInf(minRuntime, 1) {
			return Result{}, fmt.Errorf("sim: no live jobs but %d remaining", remaining)
		}
		if s.opt.CaptureFrames {
			s.captureFrame(now, now+minRuntime, nAccels)
		}
		now += minRuntime
		// Progress every live job; collect the finished ones, then
		// retire them in accel order (v1's sweep order) so simultaneous
		// completions append to JobRuns identically under both kernels.
		s.retire = s.retire[:0]
		for _, a := range s.liveIdx {
			st := &s.state[a]
			var done bool
			if st.req <= 1e-12 {
				st.noBW -= minRuntime
				done = st.noBW <= 1e-9
			} else {
				st.work -= minRuntime * s.alloc[a]
				done = st.work <= 1e-6*st.req // tolerance in work units
			}
			if done {
				s.retire = append(s.retire, a)
			}
		}
		insertionSortInts(s.retire)
		for _, a := range s.retire {
			st := &s.state[a]
			s.jobRuns = append(s.jobRuns, JobRun{JobID: st.job, AccelID: a, Start: st.start, End: now})
			remaining--
			s.launch(m, a, now)
			if !s.state[a].active {
				p, last := s.livePos[a], len(s.liveIdx)-1
				moved := s.liveIdx[last]
				s.liveIdx[p] = moved
				s.livePos[moved] = p
				s.liveIdx = s.liveIdx[:last]
				s.livePos[a] = -1
			}
		}
	}
	return s.finish(now, nAccels), nil
}

// ReferenceSimulator runs the original Algorithm 1 frame loop (kernel
// v1): every frame re-divides the bandwidth over all slots, rescans for
// the earliest completion and decrements every live job's remaining
// work — O(nJobs·nAccels) per run. It is the reference the v2≡v1
// property tests and cmd/bench's kernel comparison measure Simulator
// against, and nothing else may construct it: results agree with
// Simulator only within the retirement tolerances, so a fitness memo
// filled by one is not valid for the other. It does not pass the
// sim.kernel fault point. Same scratch reuse and Result ownership rule
// as Simulator.
type ReferenceSimulator struct{ s Simulator }

// NewReferenceSimulator builds a reusable reference simulator.
func NewReferenceSimulator(opt Options) *ReferenceSimulator {
	return &ReferenceSimulator{s: Simulator{opt: opt}}
}

// Run executes the mapping with the frame loop.
func (r *ReferenceSimulator) Run(t *analyzer.Table, m Mapping) (Result, error) {
	return r.s.runV1(t, m)
}

func (s *Simulator) runV1(t *analyzer.Table, m Mapping) (Result, error) {
	nJobs, nAccels, sysBW, err := s.prepare(t, m)
	if err != nil {
		return Result{}, err
	}
	now := 0.0
	for a := 0; a < nAccels; a++ {
		s.launch(m, a, now)
	}
	remaining := nJobs
	for remaining > 0 {
		s.unsat = allocateScratch(s.state, s.alloc, sysBW, s.opt.Policy, s.unsat)
		// Find the earliest completion among live jobs.
		minRuntime := math.Inf(1)
		for a := range s.state {
			st := &s.state[a]
			if !st.active {
				continue
			}
			var runtime float64
			if st.req <= 1e-12 {
				runtime = st.noBW
			} else {
				runtime = st.work / s.alloc[a]
			}
			if runtime < minRuntime {
				minRuntime = runtime
			}
		}
		if math.IsInf(minRuntime, 1) {
			return Result{}, fmt.Errorf("sim: no live jobs but %d remaining", remaining)
		}
		if s.opt.CaptureFrames {
			s.captureFrame(now, now+minRuntime, nAccels)
		}
		now += minRuntime
		// Progress every live job; retire the finished ones.
		for a := range s.state {
			st := &s.state[a]
			if !st.active {
				continue
			}
			var done bool
			if st.req <= 1e-12 {
				st.noBW -= minRuntime
				done = st.noBW <= 1e-9
			} else {
				st.work -= minRuntime * s.alloc[a]
				done = st.work <= 1e-6*st.req // tolerance in work units
			}
			if done {
				s.jobRuns = append(s.jobRuns, JobRun{JobID: st.job, AccelID: a, Start: st.start, End: now})
				remaining--
				s.launch(m, a, now)
			}
		}
	}
	return s.finish(now, nAccels), nil
}
