package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/ddc"
	"winlab/internal/machine"
	"winlab/internal/query"
	"winlab/internal/sim"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// gridSource is an arithmetic ddc.PureSource: every snapshot field is a
// hash of (seed, machine, instant), so a fleet of 10⁴–10⁵ machines
// costs only its ID strings and never fails a probe.
type gridSource struct {
	start time.Time
	salt  uint64
}

func (g gridSource) Reachable(string, time.Time) bool { return true }

func (g gridSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	h := fnv.New64a()
	h.Write([]byte(id))
	seed := h.Sum64() ^ g.salt
	mix := seed ^ uint64(at.Unix())*0x9e3779b97f4a7c15
	boot := g.start.Add(-time.Duration(seed%72) * time.Hour)
	up := at.Sub(boot)
	return machine.Snapshot{
		Time: at, ID: id, Lab: gridLab(id),
		CPUModel: "Intel(R) Pentium(R) 4 CPU 2.40GHz", CPUGHz: 2.4,
		RAMMB: 512, SwapMB: 768, DiskGB: 74.5,
		Serial: "GRID-" + id, OS: "Windows XP",
		BootTime: boot, Uptime: up,
		CPUIdle:     up * time.Duration(50+mix%50) / 100,
		MemLoadPct:  int(mix % 101),
		SwapLoadPct: int(mix >> 8 % 101),
		FreeDiskGB:  float64(mix%60000) / 1000,
		PowerCycles: int64(seed % 2000), PowerOnHours: int64(seed % 30000),
		SentBytes: mix % (1 << 32), RecvBytes: (mix >> 16) % (1 << 32),
	}, true
}

func gridLab(id string) string { return id[:4] }

// gridSharded is a wide, short fleet collected by ddc.ShardedCollector
// into per-shard TBv1 segments plus a manifest, then analysed with
// analysis.AllManifest.
type gridSharded struct {
	ids        []string
	infos      []trace.MachineInfo
	iters      int
	shards     int
	start, end time.Time
	period     time.Duration
	src        gridSource
	dir        string
}

func setupGridSharded(o *options, dir string) (instance, error) {
	machines, iters := 25000, 12
	if o.tiny {
		machines, iters = 500, 4
	}
	g := &gridSharded{
		ids:    make([]string, machines),
		infos:  make([]trace.MachineInfo, machines),
		iters:  iters,
		shards: runtime.NumCPU(),
		start:  time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC),
		period: 15 * time.Minute,
		dir:    dir,
	}
	g.end = g.start.Add(time.Duration(iters) * g.period)
	g.src = gridSource{start: g.start, salt: uint64(o.seed) * 0xbf58476d1ce4e5b9}
	for i := range g.ids {
		g.ids[i] = fmt.Sprintf("G%03d-m%06d", i/100, i)
		g.infos[i] = trace.MachineInfo{
			ID: g.ids[i], Lab: gridLab(g.ids[i]),
			RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1,
		}
	}
	return g, nil
}

func (g *gridSharded) close() error { return nil }

// commitTimer wraps one shard's Post in a timer. Each shard's Post runs
// on that shard's goroutine only, so the fields need no locking; they
// are read after the collector's Finish has joined the shards.
type commitTimer struct {
	post  ddc.PostCollect
	total time.Duration
	calls int
}

func (c *commitTimer) Post(iter int, machineID string, stdout []byte, err error) {
	t0 := time.Now()
	c.post(iter, machineID, stdout, err)
	c.total += time.Since(t0)
	c.calls++
}

// setCommitLayers folds the shards' commit timers.
func setCommitLayers(r *passResult, timers []*commitTimer) {
	var calls int
	var total, lo, hi time.Duration
	for i, t := range timers {
		calls += t.calls
		total += t.total
		if i == 0 || t.total < lo {
			lo = t.total
		}
		hi = max(hi, t.total)
	}
	r.setLayer("ddc.commit_ms", ms(total))
	r.setLayer("ddc.commit_calls", float64(calls))
	if lo > 0 {
		r.setLayer("ddc.shard_skew", float64(hi)/float64(lo))
	}
}

func (g *gridSharded) pass(k int, tr *tracer) *passResult {
	r := &passResult{}
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.NewRegistry()
	}
	root := tr.begin("pass", 0)
	defer tr.end(root)

	cpu0 := cpuTime()
	t0 := time.Now()
	parts := ddc.PartitionN(g.ids, g.shards)
	sinks := make([]*ddc.DatasetSink, len(parts))
	timers := make([]*commitTimer, len(parts))
	specs := make([]ddc.ShardSpec, len(parts))
	at := 0
	for i, part := range parts {
		sinks[i] = ddc.NewDatasetSink(g.start, g.end, g.period, g.infos[at:at+len(part)])
		at += len(part)
		specs[i] = ddc.ShardSpec{Machines: part, Post: sinks[i].Post, OnIteration: sinks[i].OnIteration}
		if tr != nil {
			timers[i] = &commitTimer{post: sinks[i].Post}
			specs[i].Post = timers[i].Post
		}
	}
	eng := sim.New(g.start)
	lat := func() time.Duration { return 500 * time.Microsecond }
	coll := &ddc.ShardedCollector{
		Cfg:       ddc.Config{Period: g.period, LatencyOK: lat, LatencyFail: lat},
		Exec:      &ddc.PureDirect{Source: g.src, Now: eng.Now},
		Shards:    specs,
		Telemetry: reg,
	}
	if !r.op("ShardedCollector.Install", coll.Install(eng, g.start, g.end)) {
		return r
	}
	sp := tr.begin("ddc.ShardedCollector", root)
	eng.RunUntil(g.end)
	coll.Finish()
	r.setLayer("ddc.sharded_collect_ms", ms(tr.end(sp)))
	collected := coll.Stats().Samples
	if tr != nil {
		setCommitLayers(r, timers)
	}

	dss := make([]*trace.Dataset, len(sinks))
	for i, s := range sinks {
		ds, err := s.Dataset()
		if !r.op(fmt.Sprintf("shard %d dataset", i), err) {
			return r
		}
		ds.SortSamples()
		dss[i] = ds
	}
	sp = tr.begin("trace.WriteSegments", root)
	mpath, err := trace.WriteSegments(g.dir, "grid", dss)
	r.setLayer("trace.encode_ms", ms(tr.end(sp)))
	if !r.op("trace.WriteSegments", err) {
		return r
	}
	r.collect = time.Since(t0)

	t1 := time.Now()
	sp = tr.begin("analysis.AllManifest", root)
	m, err := trace.ReadManifest(mpath)
	var res *analysis.Results
	if err == nil {
		res, err = analysis.AllManifest(m, g.dir, analysis.Options{})
	}
	allManifest := tr.end(sp)
	r.analyze = time.Since(t1)
	if !r.op("analysis.AllManifest", err) {
		return r
	}

	samples := 0
	for _, seg := range m.Segments {
		samples += int(seg.Samples)
	}
	info := query.Info{
		Start: m.Start, End: m.End, Period: m.PeriodNS,
		Iterations: g.iters, Samples: samples, Machines: len(g.ids),
	}
	serveResults(r, tr, root, reg, res, info, 10)
	r.cpu = cpuTime() - cpu0

	paths := m.SegmentPaths(g.dir)
	if tr != nil {
		decode, bytes, err := decodeOnly(paths)
		if r.op("stream decode", err) {
			setDecodeLayers(r, decode, bytes)
			r.setLayer("analysis.allmanifest_ms", ms(allManifest))
			r.setLayer("analysis.allmanifest_self_ms", ms(allManifest-decode))
		}
		r.setLayer("trace.encode_bytes", float64(bytes))
		setCollectorLayers(r, reg)
	}

	// Verification: the manifest is sound and every probe of every
	// machine in every iteration reached the analysis.
	rep := check.CheckManifest(m, g.dir, check.Options{})
	r.check("CheckManifest", rep.OK(), "manifest check: %v", rep.Err())
	want := len(g.ids) * g.iters
	r.check("sample count", res.Table2.Both.Samples == want && collected == want,
		"analysed %d samples, collector booked %d, want %d", res.Table2.Both.Samples, collected, want)
	return r
}
