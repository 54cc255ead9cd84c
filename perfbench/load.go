package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request i and returns the HTTP status and body, or a
// transport error. The load generator owns only the timing; what a
// request is lives with the workload.
type sendFunc func(ctx context.Context, i int) (status int, body []byte, err error)

// shot is the record of one scheduled request.
type shot struct {
	Index  int
	Due    time.Time // when the schedule said to send it
	Start  time.Time // when a connection actually sent it
	End    time.Time // when the full response had been read
	Lag    time.Duration
	Status int
	Body   []byte
	Err    error
}

// OK reports whether the request got a 200 without a transport error.
func (s shot) OK() bool { return s.Err == nil && s.Status == 200 }

// LatencyMS is the open-loop latency: from the time the request was due,
// not from when it was sent, so a stall also charges every request that
// waited behind it for a connection, and so does a late wake-up of the
// generator, which shares the program's CPUs. A failed request has
// infinite latency, so it misses any limit.
func (s shot) LatencyMS() float64 {
	if !s.OK() {
		return math.Inf(1)
	}
	return ms(s.End.Sub(s.Due))
}

// WaitMS is how long the request waited for a free connection after it
// was due: zero unless every connection was busy.
func (s shot) WaitMS() float64 {
	if s.Start.Before(s.Due) {
		return 0
	}
	return ms(s.Start.Sub(s.Due))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop sends n requests at a constant rate over conns connections,
// one goroutine per connection. Request i is due at start + i/rate.
// Whichever connection is free takes the next request; it sleeps until
// the request is due, or sends at once if the request is already late.
//
// Lag is the generator's own lateness: how long after the later of the
// due time and the moment a connection took the request it was really
// sent. It is timer and scheduler delay, never time spent waiting for a
// busy connection, so a large lag means the numbers measure the load
// generator rather than the program.
func openLoop(ctx context.Context, n int, rate float64, conns int, send sendFunc) []shot {
	out := make([]shot, n)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				taken := time.Now()
				sleepUntil(due)
				start := time.Now()
				ready := due
				if taken.After(ready) {
					ready = taken
				}
				status, body, err := send(ctx, i)
				out[i] = shot{Index: i, Due: due, Start: start, End: time.Now(),
					Lag: start.Sub(ready), Status: status, Body: body, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends requests 0..n-1 one after another on one connection
// and returns their records; each is due when the previous one ended.
func closedLoop(ctx context.Context, n int, send sendFunc) []shot {
	out := make([]shot, 0, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		start := time.Now()
		status, body, err := send(ctx, i)
		out = append(out, shot{Index: i, Due: start, Start: start, End: time.Now(), Status: status, Body: body, Err: err})
	}
	return out
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1) and
// the number of samples ranked above it. The caller may pass xs in any
// order; it is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// median is the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// rung is one step of a workload's fixed rate ladder.
type rung struct {
	Rate    float64 // requests per second
	Seconds float64 // how long the rung sends for
}

// Requests is the rung's request count.
func (r rung) Requests() int { return int(math.Round(r.Rate * r.Seconds)) }

// rungStats summarizes one rung run.
type rungStats struct {
	Rate     float64
	N        int
	Errors   int
	P50      float64 // ms
	P95      float64 // ms
	Beyond95 int     // samples beyond the p95
	LagP95   float64 // ms, generator lateness
	Growing  bool    // the wait for a free connection kept rising
	Achieved float64 // completed requests per second, first due to last end
}

// summarize reduces a rung's shots to its statistics.
func summarize(rate float64, shots []shot) rungStats {
	st := rungStats{Rate: rate, N: len(shots)}
	if len(shots) == 0 {
		return st
	}
	lat := make([]float64, len(shots))
	lag := make([]float64, len(shots))
	wait := make([]float64, len(shots))
	first, last := shots[0].Due, shots[0].End
	for i, s := range shots {
		lat[i] = s.LatencyMS()
		lag[i] = ms(s.Lag)
		wait[i] = s.WaitMS()
		if !s.OK() {
			st.Errors++
		}
		if s.Due.Before(first) {
			first = s.Due
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	st.P50, _ = percentile(lat, 0.50)
	st.P95, st.Beyond95 = percentile(lat, 0.95)
	st.LagP95, _ = percentile(lag, 0.95)
	st.Growing = backlogGrowing(wait, 1000/rate)
	if span := last.Sub(first).Seconds(); span > 0 {
		st.Achieved = float64(len(shots)-st.Errors) / span
	}
	return st
}

// backlogGrowing reports whether the connection wait (ms, in send order)
// rose through the rung: the last third's mean wait exceeds the first
// third's by more than two send intervals. Below capacity the wait stays
// near zero with short bursts; above it the wait climbs steadily.
func backlogGrowing(waitMS []float64, intervalMS float64) bool {
	k := len(waitMS) / 3
	if k == 0 {
		return false
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(waitMS[len(waitMS)-k:])-mean(waitMS[:k]) > 2*intervalMS
}

// meets is the ladder rule: a rung counts when its p95 latency is within
// the limit, no request failed, its backlog did not grow, and the
// generator kept to its schedule.
func (st rungStats) meets(limitMS, lagLimitMS float64) bool {
	return st.N > 0 && st.Errors == 0 && st.P95 <= limitMS && !st.Growing && st.LagP95 <= lagLimitMS
}

// maxRate returns the index of the highest-rate rung that meets the
// ladder rule, or -1 when none does.
func maxRate(rungs []rungStats, limitMS, lagLimitMS float64) int {
	best := -1
	for i, st := range rungs {
		if st.meets(limitMS, lagLimitMS) && (best < 0 || st.Rate > rungs[best].Rate) {
			best = i
		}
	}
	return best
}

// ladderResult is one run up a rate ladder.
type ladderResult struct {
	stats []rungStats
	shots [][]shot
}

// runLadder runs the rungs in order as open loops, numbering requests
// globally across rungs, and stops after the first rung that misses the
// ladder rule: a higher rate would only queue deeper. A rung's request
// numbers do not depend on whether a later rung runs.
func runLadder(ctx context.Context, ladder []rung, conns int, limitMS float64, send sendFunc) ladderResult {
	var res ladderResult
	next := 0
	for _, r := range ladder {
		off, n := next, r.Requests()
		shots := openLoop(ctx, n, r.Rate, conns, func(ctx context.Context, i int) (int, []byte, error) {
			return send(ctx, off+i)
		})
		for i := range shots {
			shots[i].Index = off + i
		}
		next += n
		st := summarize(r.Rate, shots)
		res.stats = append(res.stats, st)
		res.shots = append(res.shots, shots)
		if !st.meets(limitMS, lagLimitMS) {
			break
		}
	}
	return res
}
