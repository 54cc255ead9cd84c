package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a boundary the benchmark owns. Spans of
// one request share Req; Parent is the span that caused this one (0 for
// a root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Req    int64     `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

// Dur is the span's length.
func (s span) Dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newID allocates a span id before the span's work starts, so children
// can name their parent while it is still open.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record times fn as a span with a fresh id.
func (r *recorder) record(name string, req, parent int64, fn func()) span {
	s := span{ID: r.newID(), Parent: parent, Req: req, Name: name, Start: time.Now()}
	fn()
	s.End = time.Now()
	r.add(s)
	return s
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as JSON lines with microsecond offsets from
// the recorder's start.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		span
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
	}
	for _, s := range r.all() {
		l := line{span: s,
			StartUS: float64(s.Start.Sub(r.t0)) / 1e3,
			EndUS:   float64(s.End.Sub(r.t0)) / 1e3}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the part of parent's interval that none of its children
// cover: the parent's length minus the union of the children's
// intervals, each clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.Dur() - covered
}

// Trace headers carry a traced request's id and its parent span across
// the loopback hops. Untraced requests carry neither.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

type traceCtxKey struct{}

// traceIDs is what the router tap hands the forwarding transport through
// the request context.
type traceIDs struct{ req, parent int64 }

func headerIDs(h http.Header) (req, parent int64, ok bool) {
	v := h.Get(hdrReq)
	if v == "" {
		return 0, 0, false
	}
	req, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	parent, _ = strconv.ParseInt(h.Get(hdrParent), 10, 64)
	return req, parent, true
}

func setHeaderIDs(h http.Header, req, parent int64) {
	h.Set(hdrReq, strconv.FormatInt(req, 10))
	h.Set(hdrParent, strconv.FormatInt(parent, 10))
}

// capture is one /optimize body a shard handler received.
type capture struct {
	Req     int64
	SpanID  int64
	Handler time.Duration // live handler span
	Body    []byte
	Warm    bool // received during set-up (the warm-up pass)
}

// tap wraps a shard's or the router's handler in the traced run. It
// records a span for every request that carries trace headers, counts
// every /optimize request and its failures, and (shard taps) keeps the
// bodies the replay needs: every body during set-up, traced ones after.
type tap struct {
	name    string
	rec     *recorder
	next    http.Handler
	router  bool
	warming atomic.Bool

	requests atomic.Int64
	failed   atomic.Int64

	mu       sync.Mutex
	captures []capture
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/optimize" {
		t.next.ServeHTTP(w, r)
		return
	}
	t.requests.Add(1)
	req, parent, traced := headerIDs(r.Header)
	warm := t.warming.Load()
	var body []byte
	if !t.router && (traced || warm) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body = b
		r.Body = io.NopCloser(bytes.NewReader(b))
	}
	id := t.rec.newID()
	if traced && t.router {
		r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, traceIDs{req: req, parent: id}))
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	t.next.ServeHTTP(sw, r)
	end := time.Now()
	if sw.status != http.StatusOK {
		t.failed.Add(1)
	}
	if traced {
		t.rec.add(span{ID: id, Parent: parent, Req: req, Name: t.name, Start: start, End: end})
	}
	if body != nil {
		t.mu.Lock()
		t.captures = append(t.captures, capture{Req: req, SpanID: id, Handler: end.Sub(start), Body: body, Warm: warm})
		t.mu.Unlock()
	}
}

func (t *tap) captured() []capture {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]capture(nil), t.captures...)
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceTransport is the router's forwarding transport in the traced
// run: it copies the trace ids the router tap put in the request
// context onto the forwarded request, so shard taps can parent their
// spans under the router span.
type traceTransport struct{ next http.RoundTripper }

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ids, ok := req.Context().Value(traceCtxKey{}).(traceIDs)
	if !ok {
		return t.next.RoundTrip(req)
	}
	r := req.Clone(req.Context())
	setHeaderIDs(r.Header, ids.req, ids.parent)
	return t.next.RoundTrip(r)
}

// routerTransport mirrors the keep-alive transport fleet.NewRouter
// builds by default; the traced run wraps it in traceTransport.
func routerTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// tracePath is where a traced run writes its spans, relative to the
// checkout root.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
