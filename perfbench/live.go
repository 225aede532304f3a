package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/query"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

// liveEndpoints is the reader's endpoint mix.
var liveEndpoints = []string{
	"/api/summary", "/api/availability", "/api/heatmap",
	"/api/labs", "/api/machines", "/api/epoch",
}

// revalidateShare is the share of requests sent with If-None-Match when
// the connection already holds an ETag for the endpoint.
const revalidateShare = 0.25

// lateAfter is how far past its due time an operation may start before
// it counts as late.
const lateAfter = time.Millisecond

// liveReq is one scheduled request of the reader's mix.
type liveReq struct {
	path       string
	revalidate bool
}

// liveServe is queryd's live mode in process: the paper fleet collects
// with SnapshotEvery, each clone is published into a query.Store on a
// fixed wall-clock schedule, and an open-loop HTTP reader queries the
// store through query.Serve meanwhile.
type liveServe struct {
	cfg      experiment.Config
	interval time.Duration // between publishes
	gap      time.Duration // between requests, over all connections
	warm     time.Duration // simulated time collected before the first publish
	conns    int
	mix      []liveReq

	srv    *query.Server
	client *http.Client
	base   string
	cur    atomic.Pointer[livePass]
}

func setupLiveServe(o *options, _ string) (instance, error) {
	cfg := experiment.Default(o.seed)
	// The first four days collect unpaced and unpublished; the last
	// three are published every 3 iterations, about 90 epochs, enough
	// for a p89 publish-lag tail. Starting from a 4-day prefix keeps the
	// cold cost of the measured epochs within a factor of two of each
	// other, so their median is steady; the interval keeps the largest
	// (~140 ms) under half of it, so a slower machine does not tip the
	// readers into a backlog.
	cfg.Days, cfg.SnapshotEvery = 7, 3
	// At 100 requests/s a cold build stalls a dozen requests, so the
	// ten slowest of a run come from several epochs' stalls rather than
	// from the single worst one.
	l := &liveServe{interval: 350 * time.Millisecond, gap: 10 * time.Millisecond, warm: 4 * 24 * time.Hour}
	if o.tiny {
		cfg.Days, cfg.SnapshotEvery = 1, 8
		l.interval, l.warm = 20*time.Millisecond, 0
	}
	l.cfg = cfg
	l.conns = runtime.NumCPU()
	rng := rand.New(rand.NewSource(o.seed))
	l.mix = make([]liveReq, 4096)
	for i := range l.mix {
		l.mix[i] = liveReq{liveEndpoints[rng.Intn(len(liveEndpoints))], rng.Float64() < revalidateShare}
	}
	srv, err := query.Serve("127.0.0.1:0", l)
	if err != nil {
		return nil, err
	}
	l.srv, l.base = srv, srv.URL()
	l.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     l.conns,
			MaxIdleConnsPerHost: l.conns,
			DisableCompression:  true,
		},
	}
	return l, nil
}

func (l *liveServe) close() error {
	l.client.CloseIdleConnections()
	return l.srv.Close()
}

// ServeHTTP hands requests to the running pass's query handler.
func (l *liveServe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := l.cur.Load()
	if p == nil {
		http.Error(w, "no pass running", http.StatusServiceUnavailable)
		return
	}
	if p.tr == nil {
		p.h.ServeHTTP(w, r)
		return
	}
	p.serveTraced(w, r)
}

// livePass is the state of one live-serve pass.
type livePass struct {
	l    *liveServe
	st   *query.Store
	h    *query.Handler
	tr   *tracer
	root int

	// Publisher state, owned by the collector goroutine. readStart is
	// written before firstPub is closed and only read after.
	origin       time.Time   // epoch e is due at origin + (e-1)·interval
	dues         []time.Time // dues[e-1] is epoch e's due time
	pubLate      []time.Duration
	lastExit     time.Time
	inCallback   time.Duration
	epochCollect []float64
	freeze       []float64
	readStart    time.Time
	warmUntil    time.Time // simulated instant the publish schedule starts at
	firstPub     chan struct{}
	pubDone      chan struct{}
	stopAt       atomic.Int64 // readers stop after this instant (unix ns); 0 = not yet known

	mu      sync.Mutex
	firstOK map[uint64]time.Time // epoch → first 200 response completed

	smu      sync.Mutex
	coldSeen map[uint64]bool
	seen     map[epochPath]bool
	cold     []float64
	warm     []float64
}

type epochPath struct {
	epoch uint64
	path  string
}

// onSnapshot is the collector's SnapshotEvery callback. Snapshots of
// the warm-up period are dropped; the first one after it starts the
// publish schedule.
func (p *livePass) onSnapshot(ds *trace.Dataset) {
	entry := time.Now()
	if n := len(ds.Iterations); n == 0 || ds.Iterations[n-1].Start.Before(p.warmUntil) {
		p.lastExit = entry
		return
	}
	p.epochCollect = append(p.epochCollect, ms(entry.Sub(p.lastExit)))
	p.publish(ds, entry)
	p.lastExit = time.Now()
	p.inCallback += p.lastExit.Sub(entry)
}

// publish waits for the next epoch's due time and publishes ds. The
// first publish is due when it is called.
func (p *livePass) publish(ds *trace.Dataset, entry time.Time) {
	if len(p.dues) == 0 {
		p.origin = entry
	}
	due := p.origin.Add(time.Duration(len(p.dues)) * p.l.interval)
	if wait := due.Sub(entry); wait > 0 {
		time.Sleep(wait)
	}
	p.pubLate = append(p.pubLate, max(0, entry.Sub(due)))
	if p.tr != nil {
		sp := p.tr.begin("trace.Index", p.root)
		ds.Index()
		p.freeze = append(p.freeze, ms(p.tr.end(sp)))
	}
	sp := p.tr.begin("query.Publish", p.root)
	e := p.st.Publish(ds)
	p.tr.end(sp)
	p.dues = append(p.dues, due)
	if e == 1 {
		p.readStart = due
		close(p.firstPub)
	}
}

// serveTraced times one ServeHTTP call and classifies it: the first call
// of an epoch builds its aggregates (cold), the first call per endpoint
// encodes that body, and later calls are served from the cache (warm).
func (p *livePass) serveTraced(w http.ResponseWriter, r *http.Request) {
	e0 := p.st.Epoch()
	key := epochPath{e0, r.URL.Path}
	p.smu.Lock()
	cold, warm := !p.coldSeen[e0], p.seen[key]
	p.coldSeen[e0], p.seen[key] = true, true
	p.smu.Unlock()

	t0 := time.Now()
	p.h.ServeHTTP(w, r)
	t1 := time.Now()
	p.tr.add("query.ServeHTTP", p.root, t0, t1)
	if p.st.Epoch() != e0 {
		return // a publish raced the request: its epoch is ambiguous
	}
	p.smu.Lock()
	defer p.smu.Unlock()
	switch {
	case cold:
		p.cold = append(p.cold, ms(t1.Sub(t0)))
	case warm:
		p.warm = append(p.warm, float64(t1.Sub(t0))/float64(time.Microsecond))
	}
}

// noteOK records a 200 response for epoch e completed at t.
func (p *livePass) noteOK(e uint64, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.firstOK[e]; !ok || t.Before(prev) {
		p.firstOK[e] = t
	}
}

// readerLog is what one reader connection saw.
type readerLog struct {
	lat       []time.Duration
	attempted int
	failures  []string
	late      int
	lateMax   time.Duration
	lastLate  time.Duration
}

func (g *readerLog) fail(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// read is one reader connection: it sends requests c, c+conns, ... of
// the open-loop schedule, each at its due time or as soon after as the
// connection is free, and times each from its due time.
func (p *livePass) read(c int) *readerLog {
	g := &readerLog{}
	select {
	case <-p.firstPub:
	case <-p.pubDone:
		select {
		case <-p.firstPub:
		default:
			return g // nothing was published
		}
	}
	etags := map[string]string{}
	for i := c; ; i += p.l.conns {
		due := p.readStart.Add(time.Duration(i) * p.l.gap)
		if stop := p.stopAt.Load(); stop != 0 && due.UnixNano() > stop {
			return g
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		q := p.l.mix[i%len(p.l.mix)]
		req, err := http.NewRequest(http.MethodGet, p.l.base+q.path, nil)
		if err != nil {
			g.attempted++
			g.fail("GET %s: %v", q.path, err)
			continue
		}
		if et := etags[q.path]; q.revalidate && et != "" {
			req.Header.Set("If-None-Match", et)
		}
		sent := time.Now()
		late := max(0, sent.Sub(due))
		g.lastLate = late
		g.lateMax = max(g.lateMax, late)
		if late > lateAfter {
			g.late++
		}
		resp, err := p.l.client.Do(req)
		g.attempted++
		if err != nil {
			g.fail("GET %s: %v", q.path, err)
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done := time.Now()
		g.lat = append(g.lat, done.Sub(due))
		if err != nil {
			g.fail("GET %s: reading body: %v", q.path, err)
			continue
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
			g.fail("GET %s: status %d", q.path, resp.StatusCode)
			continue
		}
		etag := resp.Header.Get("Etag")
		e, err := etagEpoch(etag)
		if err != nil {
			g.fail("GET %s: %v", q.path, err)
			continue
		}
		if cur := p.st.Epoch(); e > cur {
			g.fail("GET %s: response carries epoch %d, store is at %d", q.path, e, cur)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			etags[q.path] = etag
			p.noteOK(e, done)
		}
	}
}

func (l *liveServe) pass(k int, tr *tracer) *passResult {
	r := &passResult{}
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.NewRegistry()
	}
	p := &livePass{
		l: l, st: query.NewStore(analysis.Options{}), tr: tr,
		firstPub: make(chan struct{}), pubDone: make(chan struct{}),
		firstOK: map[uint64]time.Time{}, coldSeen: map[uint64]bool{}, seen: map[epochPath]bool{},
	}
	p.h = query.NewHandler(query.Config{Store: p.st, Gate: defaultGate(), Reg: reg})
	p.root = tr.begin("pass", 0)
	defer tr.end(p.root)
	l.cur.Store(p)
	defer l.cur.Store(nil)

	cfg := l.cfg
	cfg.Telemetry = reg
	cfg.OnSnapshot = p.onSnapshot

	cpu0 := cpuTime()
	p.warmUntil = cfg.Start.Add(l.warm)
	logs := make([]*readerLog, l.conns)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = p.read(c)
		}(c)
	}

	p.lastExit = time.Now()
	runStart := p.lastExit
	sp := tr.begin("experiment.Run", p.root)
	res, err := experiment.Run(cfg)
	r.setLayer("experiment.run_ms", ms(tr.end(sp)))
	ok := r.op("experiment.Run", err)
	if ok {
		r.collect = time.Since(runStart) - p.inCallback
		p.publish(res.Dataset, time.Now()) // the complete trace, as queryd publishes it
	}
	p.stopAt.Store(time.Now().Add(l.interval).UnixNano())
	close(p.pubDone)
	wg.Wait()
	r.cpu = cpuTime() - cpu0

	// Fold the readers' logs and the publisher's schedule.
	lateOps, ops := 0, len(p.pubLate)
	var lateMax time.Duration
	for _, late := range p.pubLate {
		if late > lateAfter {
			lateOps++
		}
		lateMax = max(lateMax, late)
		if late > l.interval {
			r.behind = true
		}
	}
	for _, g := range logs {
		r.queries = append(r.queries, g.lat...)
		r.attempted += g.attempted
		r.failures = append(r.failures, g.failures...)
		lateOps += g.late
		ops += g.attempted
		lateMax = max(lateMax, g.lateMax)
		if g.lastLate > l.interval {
			r.behind = true
		}
	}
	r.attempted += len(p.dues) // publishes
	unserved := 0
	for i, due := range p.dues {
		if t, ok := p.firstOK[uint64(i+1)]; ok {
			r.lags = append(r.lags, t.Sub(due))
		} else {
			unserved++
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("%d epochs published, %d superseded before a reader fetched them; %d requests over %d connections",
		len(p.dues), unserved, len(r.queries), l.conns))
	r.setLayer("loadgen.late_ms_max", ms(lateMax))
	if ops > 0 {
		r.setLayer("loadgen.late_ratio", float64(lateOps)/float64(ops))
	}
	if tr != nil {
		r.notes = append(r.notes, "traced: each clone is frozen before its publish, which takes the freeze out of the readers' cold build, so the serving metrics' tracing overhead includes that move")
		r.setLayer("experiment.epoch_collect_ms", median(p.epochCollect))
		r.setLayer("trace.freeze_ms", median(p.freeze))
		p.smu.Lock() // a handler may still be finishing its bookkeeping
		r.setLayer("query.cold_build_ms", median(p.cold))
		r.setLayer("query.warm_us", median(p.warm))
		p.smu.Unlock()
		setCollectorLayers(r, reg)
		setQueryLayers(r, reg)
	}
	if ok {
		l.verifyFinal(r, p, res.Dataset)
	}
	return r
}

// freshBuilds is how many fresh-store cold builds verifyFinal times.
const freshBuilds = 9

// verifyFinal checks the final /api/summary against a fresh store's
// body for the same dataset, and times that fresh store's cold build as
// the pass's analysis time: from the complete trace in memory to all
// ten artefacts and the summary encoded.
func (l *liveServe) verifyFinal(r *passResult, p *livePass, ds *trace.Dataset) {
	resp, err := l.client.Get(l.base + "/api/summary")
	if !r.op("final GET /api/summary", err) {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !r.op("final summary body", err) {
		return
	}
	e, err := etagEpoch(resp.Header.Get("Etag"))
	if !r.op("final summary ETag", err) {
		return
	}
	r.check("final summary epoch", resp.StatusCode == http.StatusOK && e == p.st.Epoch(),
		"status %d at epoch %d, store at %d", resp.StatusCode, e, p.st.Epoch())

	// The fresh store's cold build is repeated, each time on its own
	// copy of the trace (so no build reuses another's frozen index) and
	// from a collected heap, and its median kept: one build is too short
	// to time steadily.
	var rec *httptest.ResponseRecorder
	builds := make([]float64, freshBuilds)
	for i := range builds {
		cp := &trace.Dataset{
			Start: ds.Start, End: ds.End, Period: ds.Period,
			Machines:   append([]trace.MachineInfo(nil), ds.Machines...),
			Iterations: append([]trace.Iteration(nil), ds.Iterations...),
			Samples:    append([]trace.Sample(nil), ds.Samples...),
		}
		runtime.GC()
		t0 := time.Now()
		fresh := query.NewStore(analysis.Options{})
		fresh.Publish(cp)
		rec = httptest.NewRecorder()
		query.NewHandler(query.Config{Store: fresh}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/summary", nil))
		builds[i] = time.Since(t0).Seconds()
	}
	r.analyze = time.Duration(median(builds) * float64(time.Second))

	got, err1 := withoutEpoch(body)
	want, err2 := withoutEpoch(rec.Body.Bytes())
	r.check("final summary == fresh store", err1 == nil && err2 == nil && reflect.DeepEqual(got, want),
		"live body %q differs from fresh-store body %q", trunc(body), trunc(rec.Body.Bytes()))
}

// withoutEpoch decodes a JSON body and drops every "epoch" field.
func withoutEpoch(body []byte) (any, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var drop func(any)
	drop = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			delete(x, "epoch")
			for _, c := range x {
				drop(c)
			}
		case []any:
			for _, c := range x {
				drop(c)
			}
		}
	}
	drop(v)
	return v, nil
}

func trunc(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
