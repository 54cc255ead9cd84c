package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"magma"
	"magma/internal/fleet"
	"magma/internal/m3e"
	"magma/internal/serve"
)

// cluster is the system under test for a serving workload: Solver-backed
// shard servers on loopback and, for the fleet, a router in front.
// Clients talk only to url.
type cluster struct {
	solvers   []*magma.Solver
	shards    []*httptest.Server
	shardTaps []*tap // traced run only
	router    *fleet.Router
	routerTS  *httptest.Server
	routerTap *tap // traced run only
	url       string
	snaps     *snapshotter
	snapDir   string
	client    *http.Client
}

// newCluster starts n shards, each a serve.NewWith handler over its own
// Solver in the cmd/serve default configuration, and a fleet router over
// them when withRouter is set. With rec set, every handler is wrapped in
// a tap and the router forwards through traceTransport.
func newCluster(n int, withRouter bool, rec *recorder, conns int) (*cluster, error) {
	c := &cluster{client: newClient(conns)}
	var shards []fleet.Shard
	for i := 0; i < n; i++ {
		s := magma.NewSolver(solverOptions())
		var h http.Handler = serve.NewWith(s, serveConfig()).Handler()
		if rec != nil {
			t := &tap{name: "serve.handler", rec: rec, next: h}
			c.shardTaps = append(c.shardTaps, t)
			h = t
		}
		ts := httptest.NewServer(h)
		c.solvers = append(c.solvers, s)
		c.shards = append(c.shards, ts)
		shards = append(shards, fleet.Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL})
	}
	c.url = c.shards[0].URL
	if !withRouter {
		return c, nil
	}
	var fc fleet.Config
	if rec != nil {
		fc.Transport = traceTransport{next: routerTransport()}
	}
	rt, err := fleet.NewRouter(shards, fc)
	if err != nil {
		c.close()
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if rec != nil {
		c.routerTap = &tap{name: "fleet.route", rec: rec, next: h, router: true}
		h = c.routerTap
	}
	c.router = rt
	c.routerTS = httptest.NewServer(h)
	c.url = c.routerTS.URL
	return c, nil
}

// close stops snapshots and servers and removes snapshot files.
func (c *cluster) close() {
	if c.snaps != nil {
		c.snaps.stop()
	}
	c.client.CloseIdleConnections()
	if c.routerTS != nil {
		c.routerTS.Close()
	}
	for _, ts := range c.shards {
		ts.Close()
	}
	if c.snapDir != "" {
		os.RemoveAll(c.snapDir)
	}
}

// setWarming marks set-up traffic, whose bodies the shard taps keep for
// the replay.
func (c *cluster) setWarming(on bool) {
	for _, t := range c.shardTaps {
		t.warming.Store(on)
	}
}

// newClient is the load generator's HTTP client: keep-alive, at most
// conns connections to a host.
func newClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = conns
	t.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: t}
}

// post sends one /optimize body. When req > 0 the request is traced: a
// client span wraps it and the trace headers name that span as the
// parent of the server-side spans.
func post(ctx context.Context, c *http.Client, url string, body []byte, rec *recorder, req int64) (int, []byte, error) {
	id := int64(0)
	if req > 0 {
		id = rec.newID()
	}
	start := time.Now()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/optimize", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req > 0 {
		setHeaderIDs(hr.Header, req, id)
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if req > 0 {
		rec.add(span{ID: id, Req: req, Name: "client.request", Start: start, End: time.Now()})
	}
	return resp.StatusCode, b, err
}

// statsOf fetches a shard's /stats view (the engine counters plus the
// serve-level coalescing count).
func statsOf(ctx context.Context, c *http.Client, url string) (serve.EngineJSON, error) {
	var v serve.EngineJSON
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return v, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// snapshotter writes each Solver's warm state to its own file at a fixed
// period, as cmd/serve -snapshot-dir does, and times every write.
type snapshotter struct {
	quit chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	durMS []float64
	mb    []float64
	errs  []error
}

func startSnapshots(solvers []*magma.Solver, dir string, every time.Duration) (*snapshotter, error) {
	s := &snapshotter{quit: make(chan struct{})}
	for i, solver := range solvers {
		d := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			s.stop()
			return nil, err
		}
		path := filepath.Join(d, "solver.snap")
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-s.quit:
					return
				case <-tick.C:
					start := time.Now()
					err := solver.SnapshotFile(path)
					dur := ms(time.Since(start))
					var size int64
					if fi, serr := os.Stat(path); serr == nil {
						size = fi.Size()
					}
					s.mu.Lock()
					if err != nil {
						s.errs = append(s.errs, err)
					} else {
						s.durMS = append(s.durMS, dur)
						s.mb = append(s.mb, float64(size)/(1<<20))
					}
					s.mu.Unlock()
				}
			}
		}()
	}
	return s, nil
}

// stop ends the snapshot goroutines and waits for them.
func (s *snapshotter) stop() {
	close(s.quit)
	s.wg.Wait()
}

// servedChecks checks every /optimize answer of a serving run and sums
// the per-request cache counters the answers report.
type servedChecks struct {
	c     *checker
	cache m3e.CacheStats
	first map[string]json.RawMessage // first answer's groups per body
}

func newServedChecks() *servedChecks {
	return &servedChecks{c: newChecker(), first: map[string]json.RawMessage{}}
}

// check verifies one request: a 200, a decodable complete answer whose
// every schedule passes the checker, and groups byte-identical to the
// first answer to the same body. A request failing any of these counts
// as failed. With res set, the answer's schedules are folded into it.
func (sv *servedChecks) check(rep *report, s shot, body []byte, res *results) {
	rep.attempted++
	label := fmt.Sprintf("request %d", s.Index)
	ok := s.OK()
	if !ok {
		sv.c.failf("%s: status %d, error %v: %.200s", label, s.Status, s.Err, s.Body)
	} else if r, err := decodeResponse(s.Body); err != nil {
		sv.c.failf("%s: undecodable answer: %v", label, err)
		ok = false
	} else {
		if r.Partial {
			sv.c.failf("%s: partial answer", label)
			ok = false
		}
		if !sv.c.response(label, body, r.Groups) {
			ok = false
		}
		if res != nil {
			for _, g := range r.Groups {
				res.add(g.Queues, g.Fitness, g.ThroughputGFLOPs)
			}
		}
		if prev, seen := sv.first[string(body)]; !seen {
			sv.first[string(body)] = r.RawGroups
		} else if !bytes.Equal(prev, r.RawGroups) {
			sv.c.failf("%s: groups differ from the first answer to the same body", label)
			ok = false
		}
		sv.cache.Add(m3e.CacheStats{
			Hits: r.Cache.Hits, CrossHits: r.Cache.CrossHits, Deduped: r.Cache.Deduped,
			Misses: r.Cache.Misses, Invalid: r.Cache.Invalid,
			FullFP: r.Cache.FPFull, IncrementalFP: r.Cache.FPIncremental, CleanFP: r.Cache.FPClean,
			BoundChecked: r.Cache.BoundChecked, BoundPruned: r.Cache.BoundPruned,
		})
	}
	if !ok {
		rep.failed++
	}
}

// classSweepS is a serving workload's sweep_s: the time one client would
// take to ask one request of every class in turn at the reference load,
// i.e. the sum over classes of the class's median latency in shots.
func classSweepS(shots []shot, class func(k int) int) float64 {
	var lat [][]float64 // by class
	for _, s := range shots {
		c := class(s.Index)
		for len(lat) <= c {
			lat = append(lat, nil)
		}
		lat[c] = append(lat[c], s.LatencyMS())
	}
	var sum float64
	for _, xs := range lat {
		if len(xs) > 0 {
			sum += median(xs)
		}
	}
	return sum / 1000
}

// servingE2E checks every answer of a ladder run and fills the end-to-end
// metrics every serving workload shares except set-up time, sweep_s and
// the retained heap. Only the reference rung's schedules are folded into
// the digest and mapping_gflops: which higher rungs a run reaches depends
// on how fast the program is.
func servingE2E(rep *report, lad ladderResult, sv *servedChecks, bodyOf func(int) []byte, limitMS float64) {
	res := newResults()
	for r, shots := range lad.shots {
		fold := res
		if r > 0 {
			fold = nil
		}
		for _, s := range shots {
			sv.check(rep, s, bodyOf(s.Index), fold)
		}
	}
	for i, st := range lad.stats {
		rep.notef("rung %g/s: n=%d p50=%.3fms p95=%.3fms (%d samples beyond) errors=%d lag_p95=%.3fms backlog_growing=%v achieved=%.3f/s meets(p95<=%gms)=%v",
			st.Rate, st.N, st.P50, st.P95, st.Beyond95, st.Errors, st.LagP95, st.Growing, st.Achieved, limitMS, st.meets(limitMS, lagLimitMS))
		if i == 0 && st.Beyond95 < 10 {
			rep.notef("WARNING: the reference rung's p95 has only %d samples beyond it (need 10); use a longer --seconds", st.Beyond95)
		}
	}
	ref := lad.stats[0]
	rep.e2e["latency_p50_ms"] = ref.P50
	rep.e2e["latency_p95_ms"] = ref.P95
	rep.e2e["max_rate_rps"] = 0
	if best := maxRate(lad.stats, limitMS, lagLimitMS); best >= 0 {
		rep.e2e["max_rate_rps"] = lad.stats[best].Achieved
	}
	if ref.LagP95 > lagLimitMS {
		rep.failures = append(rep.failures, fmt.Sprintf("load generator fell behind: lag p95 %.3fms > %dms", ref.LagP95, lagLimitMS))
	}
	rep.failures = append(rep.failures, sv.c.failures...)
	rep.e2e["success_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.e2e["mapping_gflops"] = res.GeomeanGFLOPs()
	rep.digest = res.Digest()
}

// servingLayers fills the per-layer metrics the serving workloads share.
// bodyOf maps a global request index to its body.
func servingLayers(ctx context.Context, cfg config, rec *recorder, cl *cluster, lad ladderResult, bodyOf func(int) []byte, sv *servedChecks, rep *report, replayLimit int) error {
	out := rep.layer
	var rs replayStats
	for _, t := range cl.shardTaps {
		if err := replay(ctx, rec, t.captured(), replayLimit, serveConfig(), &rs); err != nil {
			return err
		}
	}
	out["serve.decode_us"] = median(rs.decodeUS)
	out["serve.encode_us"] = median(rs.encodeUS)
	out["serve.handler_self_ms"] = median(rs.handlerSelfMS)
	phaseLayers(rs.phases, out)
	if len(rs.samples) > 200 {
		rs.samples = rs.samples[:200]
	}
	if err := directLayers(rec, rs.samples, out); err != nil {
		return err
	}
	cacheLayers(sv.cache, out)
	engineLayers(cl.solvers, out)

	var specs []serve.GenerateSpec
	sent, completed := 0, 0
	for _, shots := range lad.shots {
		for _, s := range shots {
			sent++
			if s.OK() {
				completed++
			}
			if tracedID(cfg, s.Index) == 0 {
				continue
			}
			var req serve.OptimizeRequest
			if err := json.Unmarshal(bodyOf(s.Index), &req); err == nil && req.Generate != nil {
				specs = append(specs, *req.Generate)
			}
		}
	}
	if err := generateLayer(rec, specs, out); err != nil {
		return err
	}
	out["load.sent"] = float64(sent)
	out["load.completed"] = float64(completed)
	out["load.lag_p95_ms"] = lad.stats[0].LagP95

	var traced, untraced []float64
	for _, s := range lad.shots[0] {
		if tracedID(cfg, s.Index) != 0 {
			traced = append(traced, s.LatencyMS())
		} else {
			untraced = append(untraced, s.LatencyMS())
		}
	}
	out["trace.overhead_p50_ms"] = median(traced) - median(untraced)
	rep.notef("traced run: reference-rung p50 %.3fms over %d traced requests vs %.3fms over %d untraced ones",
		median(traced), len(traced), median(untraced), len(untraced))

	var coalesced float64
	for i, ts := range cl.shards {
		v, err := statsOf(ctx, cl.client, ts.URL)
		if err != nil {
			return err
		}
		coalesced += float64(v.Coalesced)
		out["serve.failed"] += float64(cl.shardTaps[i].failed.Load())
	}
	out["serve.coalesced"] = coalesced

	spans := rec.all()
	if cl.router != nil {
		children := map[int64][]span{}
		for _, s := range spans {
			if s.Name == "serve.handler" {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		var self []float64
		for _, s := range spans {
			if s.Name == "fleet.route" {
				self = append(self, ms(selfTime(s, children[s.ID])))
			}
		}
		out["fleet.route_self_ms"] = median(self)
		st := cl.router.Stats()
		if st.Requests > 0 {
			out["fleet.fanout_groups"] = float64(st.Forwarded) / float64(st.Requests)
		}
		out["fleet.retries"] = float64(st.Retries + st.Retried429)
		var total, most int64
		for _, t := range cl.shardTaps {
			n := t.requests.Load()
			total += n
			if n > most {
				most = n
			}
		}
		if total > 0 {
			out["fleet.shard_share_max"] = float64(most) / float64(total)
		}
	}
	if cl.snaps != nil {
		cl.snaps.mu.Lock()
		out["persist.snapshot_ms"] = median(cl.snaps.durMS)
		out["persist.snapshot_mb"] = median(cl.snaps.mb)
		out["persist.snapshots"] = float64(len(cl.snaps.durMS))
		cl.snaps.mu.Unlock()
	}
	return writeTrace(cfg, rec, rep)
}

// writeTrace writes the spans and records their count.
func writeTrace(cfg config, rec *recorder, rep *report) error {
	path := tracePath(cfg.workload, cfg.seed)
	if err := rec.writeFile(path); err != nil {
		return err
	}
	n := len(rec.all())
	rep.layer["trace.spans"] = float64(n)
	rep.notef("traced run: %d spans written to %s", n, path)
	return nil
}
