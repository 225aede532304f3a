package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/ddc"
	"winlab/internal/experiment"
	"winlab/internal/query"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// paperBatch is the paper's experiment end to end: 169 machines × 77
// days, serial collection, a TBv1 file, streaming analysis, and one
// publish whose endpoints are each encoded once.
type paperBatch struct {
	cfg  experiment.Config
	path string
	ref  *analysis.Results // the first pass's verified results
}

func setupPaperBatch(o *options, dir string) (instance, error) {
	cfg := experiment.Default(o.seed)
	if o.tiny {
		cfg.Days = 2
	}
	return &paperBatch{cfg: cfg, path: filepath.Join(dir, "paper.tb")}, nil
}

func (b *paperBatch) close() error { return nil }

func (b *paperBatch) pass(k int, tr *tracer) *passResult {
	r := &passResult{}
	cfg := b.cfg
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	root := tr.begin("pass", 0)
	defer tr.end(root)

	cpu0 := cpuTime()
	t0 := time.Now()
	sp := tr.begin("experiment.Run", root)
	res, err := experiment.Run(cfg)
	r.setLayer("experiment.run_ms", ms(tr.end(sp)))
	if !r.op("experiment.Run", err) {
		return r
	}
	sp = tr.begin("trace.WriteBinary", root)
	size, err := writeBinaryFile(b.path, res.Dataset)
	r.setLayer("trace.encode_ms", ms(tr.end(sp)))
	r.setLayer("trace.encode_bytes", float64(size))
	if !r.op("trace.WriteBinary", err) {
		return r
	}
	r.collect = time.Since(t0)

	t1 := time.Now()
	sp = tr.begin("analysis.AllStream", root)
	got, err := allStreamFile(b.path)
	allStream := tr.end(sp)
	r.analyze = time.Since(t1)
	if !r.op("analysis.AllStream", err) {
		return r
	}

	cpu := cpuTime() - cpu0

	b.verify(r, res, got)
	ds := res.Dataset
	info := query.Info{
		Start: ds.Start, End: ds.End, Period: ds.Period,
		Iterations: len(ds.Iterations), Samples: len(ds.Samples), Machines: len(ds.Machines),
	}

	cpu0 = cpuTime()
	serveResults(r, tr, root, reg, got, info, 20)
	r.cpu = cpu + cpuTime() - cpu0

	if tr != nil {
		decode, bytes, err := decodeOnly([]string{b.path})
		if r.op("stream decode", err) {
			setDecodeLayers(r, decode, bytes)
			r.setLayer("analysis.allstream_ms", ms(allStream))
			r.setLayer("analysis.allstream_self_ms", ms(allStream-decode))
		}
		setCollectorLayers(r, reg)
	}
	return r
}

// verify checks that the streamed results are bit-identical to the
// in-memory engine's and that the counts match the collector's. Every
// pass runs the same inputs, so later passes are held to the first
// pass's verified results.
func (b *paperBatch) verify(r *passResult, res *experiment.Result, got *analysis.Results) {
	want, what := b.ref, "AllStream == first pass"
	if want == nil {
		want, what = analysis.All(res.Dataset, analysis.Options{}), "AllStream == All"
	}
	diff := check.FirstDiff(want, got)
	if r.check(what, diff == "", "streamed results differ: %s", diff) && b.ref == nil {
		b.ref = got
	}
	st := res.Collector
	r.check("sample count", got.Table2.Both.Samples == st.Samples && len(res.Dataset.Samples) == st.Samples,
		"analysed %d samples, dataset %d, collector %d", got.Table2.Both.Samples, len(res.Dataset.Samples), st.Samples)
	r.check("iteration count", len(got.Availability.Points) == st.Iterations && len(res.Dataset.Iterations) == st.Iterations,
		"analysed %d iterations, dataset %d, collector %d", len(got.Availability.Points), len(res.Dataset.Iterations), st.Iterations)
}

// writeBinaryFile encodes ds as a TBv1 file and returns its size.
func writeBinaryFile(path string, ds *trace.Dataset) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	if err := trace.WriteBinary(cw, ds); err != nil {
		f.Close()
		return 0, err
	}
	return cw.n, f.Close()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// allStreamFile analyses a TBv1 file in one streaming pass.
func allStreamFile(path string) (*analysis.Results, error) {
	c, err := stream.Open(path)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return analysis.AllStream(c, analysis.Options{})
}

// decodeOnly drains TBv1 files through cursors without analysing them,
// one goroutine per file as analysis.AllSegments reads them, and
// returns the wall time taken and the bytes read.
func decodeOnly(paths []string) (time.Duration, int64, error) {
	sizes := make([]int64, len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			sizes[i], errs[i] = decodeFile(p)
		}(i, p)
	}
	wg.Wait()
	took := time.Since(t0)
	var bytes int64
	for i := range paths {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		bytes += sizes[i]
	}
	return took, bytes, nil
}

// decodeFile drains one TBv1 file with stream.New and NextRun.
func decodeFile(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	c, err := stream.New(f)
	if err != nil {
		return 0, err
	}
	var run stream.Run
	for {
		ok, err := c.NextRun(&run)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func setDecodeLayers(r *passResult, decode time.Duration, bytes int64) {
	r.setLayer("stream.decode_ms", ms(decode))
	if decode > 0 {
		r.setLayer("stream.decode_mb_per_s", float64(bytes)/(1<<20)/decode.Seconds())
	}
}

// setCollectorLayers reads the collector's counters from the registry.
func setCollectorLayers(r *passResult, reg *telemetry.Registry) {
	probes := reg.Counter(ddc.MetricProbes).Value()
	samples := reg.Counter(ddc.MetricSamples).Value()
	r.setLayer("ddc.probes", float64(probes))
	r.setLayer("ddc.probe_failures", float64(reg.Counter(ddc.MetricProbeFailures).Value()))
	r.setLayer("ddc.samples", float64(samples))
	if probes > 0 {
		r.setLayer("ddc.sample_yield", float64(samples)/float64(probes))
	}
}

// setQueryLayers reads the query handler's counters from the registry.
func setQueryLayers(r *passResult, reg *telemetry.Registry) {
	hits := reg.Counter("query_cache_hits_total").Value()
	misses := reg.Counter("query_cache_misses_total").Value()
	notMod := reg.Counter("query_not_modified_total").Value()
	r.setLayer("query.requests", float64(reg.Counter("query_requests_total").Value()))
	r.setLayer("query.cache_hits", float64(hits))
	r.setLayer("query.cache_misses", float64(misses))
	r.setLayer("query.not_modified", float64(notMod))
	r.setLayer("query.shed", float64(reg.Counter("query_shed_total").Value()))
	if served := hits + misses + notMod; served > 0 {
		r.setLayer("query.hit_ratio", float64(hits+notMod)/float64(served))
	}
}

// resultEndpoints are the snapshot endpoints a published Results value
// can serve; the heatmap needs per-sample timestamps, which a streamed
// analysis does not keep.
var resultEndpoints = []string{
	"/api/summary", "/api/epoch", "/api/availability", "/api/labs",
	"/api/machines", "/api/weekly", "/api/equivalence", "/api/uptimes",
}

// defaultGate is queryd's default admission gate.
func defaultGate() *query.Gate { return query.NewGate(0, 256, 50*time.Millisecond) }

// serveResults publishes analysis results into a fresh store, rounds
// times, and after each publish fetches every snapshot endpoint the
// results can serve once through the handler, as a report or dashboard
// does after a batch run. Each publish is a new epoch with an empty
// response cache, so every round encodes every body cold. A round's
// fetch is one query; its publish lag runs from the publish to the last
// endpoint's answer.
func serveResults(r *passResult, tr *tracer, parent int, reg *telemetry.Registry, res *analysis.Results, info query.Info, rounds int) {
	// Serve from a collected heap, and run one untimed round first to
	// fault in the pages later rounds reuse: otherwise the collection of
	// earlier stages' garbage and fresh-page faults land in a few of
	// these millisecond timings.
	runtime.GC()
	st := query.NewStore(analysis.Options{})
	h := query.NewHandler(query.Config{Store: st, Gate: defaultGate(), Reg: reg})
	var cold []float64
	for round := -1; round < rounds; round++ {
		pub := time.Now()
		sp := tr.begin("query.PublishResults", parent)
		epoch := st.PublishResults(res, info)
		tr.end(sp)
		t0 := time.Now()
		served := true
		for i, path := range resultEndpoints {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			sp := tr.begin("query.ServeHTTP", parent)
			h.ServeHTTP(rec, req)
			d := tr.end(sp)
			e, err := etagEpoch(rec.Header().Get("Etag"))
			if err == nil && (rec.Code != http.StatusOK || e != epoch) {
				err = fmt.Errorf("status %d, epoch %d, want 200 at epoch %d", rec.Code, e, epoch)
			}
			served = r.op("GET "+path, err) && served
			if i == 0 && round >= 0 {
				cold = append(cold, ms(d))
			}
		}
		if served && round >= 0 {
			done := time.Now()
			r.queries = append(r.queries, done.Sub(t0))
			r.lags = append(r.lags, done.Sub(pub))
		}
	}
	if reg != nil {
		r.setLayer("query.cold_build_ms", median(cold))
		setQueryLayers(r, reg)
	}
}

// etagEpoch extracts the epoch from a query ETag ("<epoch>-<fingerprint>").
func etagEpoch(etag string) (uint64, error) {
	s := strings.Trim(etag, `"`)
	e, _, ok := strings.Cut(s, "-")
	if !ok {
		return 0, errors.New("malformed ETag " + strconv.Quote(etag))
	}
	return strconv.ParseUint(e, 10, 64)
}
