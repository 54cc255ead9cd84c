package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"magma"
	"magma/internal/serve"
)

func TestPercentileWithSampleCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{0.50, 100, 100},
		{0.95, 190, 10},
		{0.99, 198, 2},
		{1.00, 200, 0},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..200, %v) = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	// Twenty samples leave a single one beyond p95: too few to report.
	if _, beyond := percentile(xs[:20], 0.95); beyond != 1 {
		t.Errorf("p95 of 20 samples: %d beyond, want 1", beyond)
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// Sent 30ms late because every connection was busy: the wait counts.
	s := shot{Due: due, Start: due.Add(30 * time.Millisecond), End: due.Add(45 * time.Millisecond), Status: 200}
	if got := s.LatencyMS(); got != 45 {
		t.Errorf("latency = %v ms, want 45 (from due time, not send time)", got)
	}
	if got := s.WaitMS(); got != 30 {
		t.Errorf("wait = %v ms, want 30", got)
	}
	// Sent 2ms late because the generator's timer woke late: that counts
	// too, since the generator shares the program's CPUs.
	late := shot{Due: due, Start: due.Add(2 * time.Millisecond), End: due.Add(12 * time.Millisecond), Lag: 2 * time.Millisecond, Status: 200}
	if got := late.LatencyMS(); got != 12 {
		t.Errorf("latency = %v ms, want 12 (from due time, generator lateness included)", got)
	}
	s.Status = 500
	if !math.IsInf(s.LatencyMS(), 1) {
		t.Error("a failed request must miss every latency limit")
	}
}

func TestOpenLoopKeepsSchedulePastAStall(t *testing.T) {
	// One connection, a request due every 5ms, and a server that takes
	// 20ms: every request waits behind its predecessor, so due-time
	// latency grows along the run even though each takes 20ms to serve.
	const n = 6
	interval := 5 * time.Millisecond
	var inflight atomic.Int32
	shots := openLoop(context.Background(), n, 200, 1, func(ctx context.Context, i int) (int, []byte, error) {
		if inflight.Add(1) > 1 {
			t.Error("more requests in flight than connections")
		}
		time.Sleep(20 * time.Millisecond)
		inflight.Add(-1)
		return 200, nil, nil
	})
	for i, s := range shots {
		if s.Index != i {
			t.Fatalf("shot %d has index %d", i, s.Index)
		}
		if i > 0 {
			if d := s.Due.Sub(shots[i-1].Due); d != interval {
				t.Errorf("due times %d apart by %v, want %v", i, d, interval)
			}
			if s.Start.Before(shots[i-1].End) {
				t.Errorf("request %d started before %d ended on the only connection", i, i-1)
			}
			if s.LatencyMS() <= shots[i-1].LatencyMS() {
				t.Errorf("latency did not grow behind the stall: %v then %v", shots[i-1].LatencyMS(), s.LatencyMS())
			}
		}
		if want := ms(s.End.Sub(s.Due)); s.LatencyMS() != want {
			t.Errorf("latency %v, want end minus due %v", s.LatencyMS(), want)
		}
	}
	st := summarize(200, shots)
	if !st.Growing {
		t.Error("a queue growing behind a slow server must count as a growing backlog")
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := []float64{0, 0, 3, 0, 0, 0, 4, 0, 0}
	if backlogGrowing(flat, 10) {
		t.Error("short bursts are not a growing backlog")
	}
	rising := []float64{0, 5, 10, 15, 20, 25, 30, 35, 40}
	if !backlogGrowing(rising, 10) {
		t.Error("a steadily rising wait is a growing backlog")
	}
	if backlogGrowing([]float64{0, 100}, 10) {
		t.Error("too few samples to call a trend")
	}
}

func TestMaxRateLadderRule(t *testing.T) {
	ok := func(rate float64) rungStats { return rungStats{Rate: rate, N: 100, P95: 50, LagP95: 1} }
	const limit, lag = 100.0, 20.0
	slow := ok(24)
	slow.P95 = 150
	failing := ok(24)
	failing.Errors = 1
	growing := ok(24)
	growing.Growing = true
	late := ok(24)
	late.LagP95 = 30
	for _, c := range []struct {
		name  string
		rungs []rungStats
		want  int
	}{
		{"all meet", []rungStats{ok(9), ok(24)}, 1},
		{"p95 over limit", []rungStats{ok(9), slow}, 0},
		{"an error", []rungStats{ok(9), failing}, 0},
		{"growing backlog", []rungStats{ok(9), growing}, 0},
		{"generator fell behind", []rungStats{ok(9), late}, 0},
		{"none meets", []rungStats{slow}, -1},
		{"highest meeting rung wins", []rungStats{ok(9), growing, ok(64)}, 2},
		{"empty rung", []rungStats{{Rate: 9}}, -1},
	} {
		if got := maxRate(c.rungs, limit, lag); got != c.want {
			t.Errorf("%s: maxRate = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) span {
		return span{Start: t0.Add(time.Duration(a) * time.Millisecond), End: t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []span{at(10, 20), at(30, 50)}, 70 * time.Millisecond},
		{"overlapping children count once", []span{at(10, 30), at(20, 50)}, 60 * time.Millisecond},
		{"nested", []span{at(10, 60), at(20, 30)}, 50 * time.Millisecond},
		{"clipped to the parent", []span{at(-10, 10), at(90, 120)}, 80 * time.Millisecond},
		{"outside the parent", []span{at(200, 300)}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDigest(t *testing.T) {
	digest := func(scheds ...[][]int) string {
		r := newResults()
		for i, q := range scheds {
			r.add(q, float64(i)+0.5, 1)
		}
		return r.Digest()
	}
	a := [][]int{{0, 1}, {2}}
	b := [][]int{{1, 0}, {2}}
	base := digest(a, b)
	if base != digest(a, b) {
		t.Error("digest is not deterministic")
	}
	// Pinned: the digest must stay comparable across commits.
	if base != "4a7b8451953d7c51" {
		t.Errorf("digest of the fixed schedules = %s; its definition changed", base)
	}
	if digest(b, a) == base {
		t.Error("digest ignores the order schedules were returned in")
	}
	if digest(a, [][]int{{1}, {0, 2}}) == base {
		t.Error("digest ignores queue boundaries")
	}
	r := newResults()
	r.add(a, 0.5, 1)
	r.add(b, math.Nextafter(1.5, 2), 1)
	if r.Digest() == base {
		t.Error("digest ignores the low bit of a fitness")
	}
}

func TestGeomean(t *testing.T) {
	r := newResults()
	r.add(nil, 0, 2)
	r.add(nil, 0, 8)
	if g := r.GeomeanGFLOPs(); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end:\n%v\nprogram prints:\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer:\n%v\nprogram prints:\n%v", spec.PerLayer, perLayer)
	}
}

func TestResponseNeedsEveryGroup(t *testing.T) {
	ts := httptest.NewServer(serve.NewWith(magma.NewSolver(solverOptions()), serveConfig()).Handler())
	defer ts.Close()
	body := []byte(`{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":3},"platform":"S2","options":{"budget_per_group":320,"seed":5}}`)
	status, raw, err := post(context.Background(), ts.Client(), ts.URL, body, nil, 0)
	if err != nil || status != 200 {
		t.Fatalf("POST /optimize: status %d, %v: %s", status, err, raw)
	}
	r, err := decodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 2 {
		t.Fatalf("answer has %d groups, want 2", len(r.Groups))
	}
	c := newChecker()
	if !c.response("full", body, r.Groups) {
		t.Fatalf("a complete answer failed the check: %v", c.failures)
	}
	if c.response("missing a group", body, r.Groups[:1]) {
		t.Error("an answer missing a group passed the check")
	}
	if c.response("no groups", body, nil) {
		t.Error("an answer with no groups passed the check")
	}
	bad := append([]serve.GroupSchedule(nil), r.Groups...)
	bad[1].Fitness++
	if c.response("wrong fitness", body, bad) {
		t.Error("an answer with a wrong fitness passed the check")
	}
}

func TestClassSweep(t *testing.T) {
	due := time.Unix(100, 0)
	at := func(k int, latMS int) shot {
		return shot{Index: k, Due: due, End: due.Add(time.Duration(latMS) * time.Millisecond), Status: 200}
	}
	// Class 0 has latencies 10, 30, 20 (median 20); class 2 has 5 and 7
	// (median 6); class 1 is never asked.
	shots := []shot{at(0, 10), at(1, 5), at(2, 30), at(3, 7), at(4, 20)}
	class := []int{0, 2, 0, 2, 0}
	if got := classSweepS(shots, func(k int) int { return class[k] }); math.Abs(got-0.026) > 1e-12 {
		t.Errorf("class sweep = %v s, want 0.026", got)
	}
}
