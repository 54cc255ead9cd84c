package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"magma/internal/encoding"
)

// cold-search: an open loop of never-seen group-100 problems (§VI-A2)
// at the paper's default budget against one node. Every request builds
// an analysis table and fills a fresh fitness store, so the simulator,
// the analyzer and the cache's insert path carry the latency and
// cross-request reuse does nothing.
const (
	coldLimitMS = 400 // p95 latency limit of the ladder rule
	coldBlock   = 24  // one request per task × platform pair
	// coldProblemSeed fixes the problems, so latencies and mapping_gflops
	// compare across seeds.
	coldProblemSeed = 11
	lagLimitMS      = 20 // generator lateness beyond which a run is void
	coldSetupRep    = 21
)

var (
	tasks     = []string{"Vision", "Lang", "Recom", "Mix"}
	platforms = []string{"S1", "S2", "S3", "S4", "S5", "S6"}
)

// coldLadder is cold-search's fixed rate ladder. The first rung is the
// reference rate the latency percentiles are reported at. It holds about
// 85% of the run in whole blocks of coldBlock requests, so it asks every
// task × platform pair equally often and its p95 has at least ten
// samples beyond it at --seconds 36. The capacity of one node on two
// CPUs is 15–20 req/s, so the upper rungs sit well below and well above
// it: a rung at the capacity would pass or fail by chance.
func coldLadder(seconds float64) []rung {
	const refRate = 7
	blocks := math.Max(1, math.Round(0.85*seconds*refRate/coldBlock))
	return []rung{{refRate, blocks * coldBlock / refRate}, {10, 0.1 * seconds}, {30, 0.05 * seconds}}
}

// coldBodies makes n /optimize bodies, each a never-seen generated
// group of 100 jobs, and the task × platform pair (0..23) of each. Every
// block of coldBlock consecutive bodies holds each pair once. The
// problems are the same for every seed — the problem of a block's pair
// comes from a fixed generator seed — so the seed's own share of the
// run-to-run spread stays small; the seed draws the order within each
// block and every search seed.
func coldBodies(seed int64, n int) (bodies [][]byte, pair []int) {
	r := rand.New(rand.NewSource(seed))
	problems := rand.New(rand.NewSource(coldProblemSeed))
	block := make([]int, len(tasks)*len(platforms))
	genSeed := make([]int64, len(block))
	for len(bodies) < n {
		for i := range block {
			block[i] = i
			genSeed[i] = problems.Int63n(1 << 40)
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, p := range block {
			if len(bodies) == n {
				break
			}
			bodies = append(bodies, []byte(fmt.Sprintf(
				`{"generate":{"task":%q,"num_jobs":100,"group_size":100,"seed":%d},"platform":%q,"options":{"seed":%d}}`,
				tasks[p/len(platforms)], genSeed[p], platforms[p%len(platforms)], r.Int63n(1<<30))))
			pair = append(pair, p)
		}
	}
	return bodies, pair
}

func runColdSearch(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	ladder := coldLadder(cfg.seconds)
	total := 0
	for _, r := range ladder {
		total += r.Requests()
	}
	var (
		bodies [][]byte
		pair   []int
	)
	cl, setupS, err := medianSetup(rep, coldSetupRep, func() (*cluster, error) {
		bodies, pair = coldBodies(cfg.seed, total)
		c, err := newCluster(1, false, rec, cfg.conns)
		if err != nil {
			return nil, err
		}
		if err := ping(ctx, c); err != nil {
			c.close()
			return nil, err
		}
		return c, nil
	}, (*cluster).close)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	rep.e2e["setup_s"] = setupS

	lad := runLadder(ctx, ladder, cfg.conns, coldLimitMS, func(ctx context.Context, k int) (int, []byte, error) {
		return post(ctx, cl.client, cl.url, bodies[k], rec, tracedID(cfg, k))
	})
	sv := newServedChecks()
	servingE2E(rep, lad, sv, func(k int) []byte { return bodies[k] }, coldLimitMS)
	rep.e2e["sweep_s"] = classSweepS(lad.shots[0], func(k int) int { return pair[k] })
	rep.notef("sweep_s: sum over the %d task × platform pairs of the pair's median reference-rung latency", coldBlock)

	if cfg.trace {
		if err := coldLayers(ctx, cfg, rec, cl, lad, bodies, sv, rep); err != nil {
			return nil, err
		}
	}
	rep.e2e["retained_heap_mb"] = heapMB()
	return rep, nil
}

// ping waits until the entry server answers /healthz.
func ping(ctx context.Context, c *cluster) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	return nil
}

// tracedID is the trace request id of global request k: in a traced run
// half the stream is traced, in alternating pairs, so the traced and
// untraced halves give the tracing overhead. (Pairs, not single
// requests: with two connections, even and odd requests tend to land on
// different load goroutines, whose latencies differ slightly.) Negative
// indices name set-up requests outside the stream, never traced.
func tracedID(cfg config, k int) int64 {
	if !cfg.trace || k < 0 || (k/2)%2 != 0 {
		return 0
	}
	return int64(k + 1)
}

// coldLayers fills cold-search's per-layer metrics from the traced run.
func coldLayers(ctx context.Context, cfg config, rec *recorder, cl *cluster, lad ladderResult, bodies [][]byte, sv *servedChecks, rep *report) error {
	asked := map[encoding.TableKey]bool{}
	for _, shots := range lad.shots {
		for _, s := range shots {
			ps, err := sv.c.problems(bodies[s.Index])
			if err != nil {
				return err
			}
			for _, p := range ps {
				asked[encoding.TableIdentity(p.Group, p.Platform)] = true
			}
		}
	}
	rep.layer["engine.problems_asked"] = float64(len(asked))
	return servingLayers(ctx, cfg, rec, cl, lad, func(k int) []byte { return bodies[k] }, sv, rep, 24)
}
