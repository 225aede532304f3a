// Command perfbench is the pipeline benchmark: it runs one workload of
// the winlab pipeline (simulated fleet → collection → TBv1 trace →
// analysis → publish → serving) for a fixed time, checks the outputs,
// and prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics of a traced run and the tracing overhead. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics every untraced run reports, on every
// workload; README.md defines each one per workload. The peak resident
// set and the error ratio are printed too but are not among them: the
// peak moves by up to a fifth between runs with the collector's timing,
// and the error ratio is 0 whenever the program is correct (it is
// carried by the result's failed and attempted counts).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"collect_s", "s"},
	{"analyze_s", "s"},
	{"publish_lag_ms", "ms"},
	{"publish_lag_tail_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"cpu_s", "s"},
}

// perLayer lists the metrics a traced run reports. A layer the workload
// bypasses reports 0. Layer metrics only the ungated live-serve workload
// produces (freeze, warm serving, epoch collection, load-generator
// lateness) are printed on lines of their own.
var perLayer = []metricDef{
	{"experiment.run_ms", "ms"},
	{"ddc.probes", "count"},
	{"ddc.probe_failures", "count"},
	{"ddc.samples", "count"},
	{"ddc.sample_yield", "1"},
	{"ddc.sharded_collect_ms", "ms"},
	{"ddc.commit_ms", "ms"},
	{"ddc.commit_calls", "count"},
	{"ddc.shard_skew", "1"},
	{"trace.encode_ms", "ms"},
	{"trace.encode_bytes", "B"},
	{"stream.decode_ms", "ms"},
	{"stream.decode_mb_per_s", "MB/s"},
	{"analysis.allstream_ms", "ms"},
	{"analysis.allstream_self_ms", "ms"},
	{"analysis.allmanifest_ms", "ms"},
	{"analysis.allmanifest_self_ms", "ms"},
	{"query.cold_build_ms", "ms"},
	{"query.requests", "count"},
	{"query.cache_hits", "count"},
	{"query.cache_misses", "count"},
	{"query.not_modified", "count"},
	{"query.shed", "count"},
	{"query.hit_ratio", "1"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool   // test-sized inputs
	workDir  string // trace files (removed at the end) and spans
}

// instance is a workload set up and ready to run passes.
type instance interface {
	// pass runs the workload once; tr is nil in untraced passes.
	pass(k int, tr *tracer) *passResult
	close() error
}

// workload is one benchmark input set.
type workload struct {
	name     string
	why      string
	gated    bool          // listed in BENCHMARK.json
	passTime time.Duration // how long one pass takes, to fit passes in --seconds
	setup    func(o *options, dir string) (instance, error)
}

var workloads = []workload{
	{"paper-batch", "a long, narrow trace whose per-machine state fits in cache: simulation, collection, the final sort, TBv1 encode and streaming decode and analysis", true, 9 * time.Second, setupPaperBatch},
	{"grid-sharded", "a wide, short fleet whose per-machine state far exceeds the caches: shard fan-out, segment writes and multi-segment decode, bypassing the behaviour model", true, 3 * time.Second, setupGridSharded},
	{"live-serve", "reads beside paced writes: every publish empties the cache, so readers pay the clone, freeze, analysis and encode of each epoch; bypasses the TBv1 codec", false, 32 * time.Second, setupLiveServe},
}

// passResult is what one pass measured and checked.
type passResult struct {
	collect, analyze time.Duration
	cpu              time.Duration
	lags             []time.Duration // publish lag per epoch served
	queries          []time.Duration // request latency from its due time
	attempted        int
	failures         []string
	behind           bool               // an open-loop generator fell behind schedule
	notes            []string           // human-readable detail
	layer            map[string]float64 // traced passes only
}

// op books one attempted operation; a non-nil err is a failure.
func (r *passResult) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, what+": "+err.Error())
		return false
	}
	return true
}

// check books one verification.
func (r *passResult) check(what string, ok bool, format string, args ...any) bool {
	if ok {
		return r.op(what, nil)
	}
	return r.op(what, fmt.Errorf(format, args...))
}

func (r *passResult) setLayer(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o := &options{}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "workload to run: paper-batch, grid-sharded or live-serve")
	fl.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fl.IntVar(&o.seconds, "seconds", 20, "how long to measure")
	traceFlag := fl.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	setupOnly := fl.Bool("setup-only", false, "set the workload up, print \"ready\" and exit (used to time set-up)")
	fl.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for trace files and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if *setupOnly {
		inst, err := wl.setup(o, o.workDir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		if err := inst.close(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := execute(o, wl, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phase is a sequence of passes, all traced or all untraced.
type phase struct {
	passes []*passResult
	gcMs   []float64
	heapMB []float64
}

func (p *phase) attempted() (n, failed int) {
	for _, r := range p.passes {
		n += r.attempted
		failed += len(r.failures)
	}
	return n, failed
}

// passCount is how many passes of a workload fit in budget: at least
// one. A fixed count, rather than "until time runs out", keeps every
// run's medians over the same number of passes.
func passCount(wl *workload, budget time.Duration) int {
	return max(1, int(budget/wl.passTime))
}

// runPhase runs n passes, or fewer if one fails.
func runPhase(inst instance, n int, tr *tracer, first int) *phase {
	ph := &phase{}
	for k := first; k < first+n; k++ {
		// Start every pass from a collected heap, so passes do not
		// inherit each other's garbage. The freed memory is kept: on a
		// virtual machine, faulting returned pages back in costs a
		// varying amount from run to run.
		runtime.GC()
		tr.setRun(fmt.Sprintf("pass-%d", k))
		var hs *heapSampler
		var gc0 time.Duration
		if tr != nil {
			gc0 = gcPauseTotal()
			hs = startHeapSampler(2 * time.Millisecond)
		}
		r := inst.pass(k, tr)
		if tr != nil {
			ph.heapMB = append(ph.heapMB, hs.Stop())
			ph.gcMs = append(ph.gcMs, ms(gcPauseTotal()-gc0))
		}
		ph.passes = append(ph.passes, r)
		if len(r.failures) > 0 {
			break
		}
	}
	return ph
}

// execute sets the workload up, runs it and assembles the result.
func execute(o *options, wl *workload, stdout io.Writer) (*result, error) {
	prov := provenance(o, wl)
	pj, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(pj))

	dir := filepath.Join(o.workDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(dir)

	setupS, err := measureSetup(o)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", wl.name, err)
	}
	inst, err := wl.setup(o, dir)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", wl.name, err)
	}
	defer inst.close()

	budget := time.Duration(o.seconds) * time.Second
	res := &result{Metrics: map[string]metricValue{}}
	if !o.trace {
		ph := runPhase(inst, passCount(wl, budget), nil, 0)
		e2e, notes := endToEndMetrics(ph, setupS)
		printPhase(stdout, "", ph, e2e, notes)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
		res.Attempted, res.Failed = ph.attempted()
	} else {
		plain := runPhase(inst, passCount(wl, budget/2), nil, 0)
		tr := newTracer()
		traced := runPhase(inst, passCount(wl, budget/2), tr, len(plain.passes))
		e2ePlain, _ := endToEndMetrics(plain, setupS)
		e2eTraced, notes := endToEndMetrics(traced, setupS)
		printPhase(stdout, "traced ", traced, e2eTraced, notes)
		for _, m := range endToEnd {
			if m.Name == "setup_s" {
				continue
			}
			a, b := e2ePlain[m.Name], e2eTraced[m.Name]
			over := 0.0
			if a != 0 {
				over = (b - a) / a * 100
			}
			fmt.Fprintf(stdout, "tracing overhead %-20s untraced %.4f  traced %.4f %s  (%+.1f%%)\n", m.Name, a, b, m.Unit, over)
		}
		layers := layerMetrics(traced)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
			delete(layers, m.Name)
		}
		extra := make([]string, 0, len(layers))
		for n := range layers {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		for _, n := range extra {
			fmt.Fprintf(stdout, "layer %-28s %.4f\n", n, layers[n])
		}
		self := tr.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "self time %-28s %.3f ms over %d traced passes\n", n, self[n], len(traced.passes))
		}
		if err := writeSpans(o, wl, tr); err != nil {
			return nil, err
		}
		n1, f1 := plain.attempted()
		n2, f2 := traced.attempted()
		res.Attempted, res.Failed = n1+n2, f1+f2
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// setupRuns is how many times set-up is timed per run.
const setupRuns = 11

// measureSetup times, setupRuns times, a fresh process of this program
// from its start until it reports the workload ready (fleet built,
// server listening, inputs in place), and returns the times in seconds.
func measureSetup(o *options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--setup-only", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10), "--workdir", o.workDir}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		took := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up process: %q, %v, %v", line, rerr, werr)
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

// endToEndMetrics folds a phase's passes into the end-to-end metrics.
func endToEndMetrics(ph *phase, setupS []float64) (map[string]float64, []string) {
	var collect, analyze, cpu, lags, queries []float64
	var notes []string
	for _, r := range ph.passes {
		collect = append(collect, r.collect.Seconds())
		analyze = append(analyze, r.analyze.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		lags = append(lags, durationsMs(r.lags)...)
		queries = append(queries, durationsMs(r.queries)...)
	}
	lagQ, qQ := tailQuantile(len(lags)), tailQuantile(len(queries))
	m := map[string]float64{
		"setup_s":             median(setupS),
		"collect_s":           median(collect),
		"analyze_s":           median(analyze),
		"publish_lag_ms":      median(lags),
		"publish_lag_tail_ms": quantile(lags, lagQ),
		"query_p50_ms":        median(queries),
		"query_tail_ms":       quantile(queries, qQ),
		"peak_rss_mb":         peakRSSMB(),
		"cpu_s":               median(cpu),
	}
	notes = append(notes,
		fmt.Sprintf("publish_lag_tail_ms is p%.2f of %d samples", lagQ*100, len(lags)),
		fmt.Sprintf("query_tail_ms is p%.2f of %d samples", qQ*100, len(queries)),
		fmt.Sprintf("timings are medians over %d passes; setup_s over %d set-ups", len(ph.passes), len(setupS)))
	return m, notes
}

// layerMetrics takes, for every per-layer metric, the median over the
// traced passes.
func layerMetrics(ph *phase) map[string]float64 {
	vals := map[string][]float64{
		"runtime.gc_pause_ms":  ph.gcMs,
		"runtime.heap_peak_mb": ph.heapMB,
	}
	for _, r := range ph.passes {
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func printPhase(w io.Writer, label string, ph *phase, e2e map[string]float64, notes []string) {
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%s%-20s %14.4f %s\n", label, m.Name, e2e[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "%s%-20s %14.4f MB\n", label, "peak_rss_mb", e2e["peak_rss_mb"])
	n, failed := ph.attempted()
	ratio := 0.0
	if n > 0 {
		ratio = float64(failed) / float64(n)
	}
	fmt.Fprintf(w, "%s%-20s %14.4f 1 (%d failed of %d attempted)\n", label, "error_ratio", ratio, failed, n)
	for _, s := range notes {
		fmt.Fprintln(w, "note:", s)
	}
	for i, r := range ph.passes {
		for _, s := range r.notes {
			fmt.Fprintf(w, "pass %d: %s\n", i, s)
		}
		if r.behind {
			fmt.Fprintf(w, "pass %d: BEHIND SCHEDULE: an open-loop generator could not keep its schedule; its latencies include the backlog\n", i)
		}
		for j, f := range r.failures {
			if j == 10 {
				fmt.Fprintf(w, "pass %d: ... %d more failures\n", i, len(r.failures)-j)
				break
			}
			fmt.Fprintf(w, "pass %d: FAILED %s\n", i, f)
		}
	}
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(o *options, wl *workload, tr *tracer) error {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// provenance records what was measured and where.
func provenance(o *options, wl *workload) map[string]any {
	root := repoRoot()
	return map[string]any{
		"workload":   wl.name,
		"why":        wl.why,
		"gated":      wl.gated,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     gitCommit(root),
		"tree":       sourceDigest(root),
	}
}

// repoRoot is the directory holding the program's source: the current
// directory when run from the repository root, its parent when run from
// perfbench/ (as `go test` does).
func repoRoot() string {
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("perfbench"); err == nil {
			return "."
		}
	}
	return ".."
}

// gitCommit reads the checked-out commit from the repository's .git
// directory, or returns "unknown" outside a git checkout.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the
// repository root, skipping dot-directories, so runs of the same code
// can be matched when no git metadata is present.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
