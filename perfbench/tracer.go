package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative
// to the start of the run, the span that caused it (0 for none) and the
// pass it belongs to.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer records spans in memory for one traced run. A nil *tracer is
// the untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0  time.Time
	run string

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun names the pass the following spans belong to.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: float64(now) / 1e3, End: -1,
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = float64(now) / 1e3
	return time.Duration((sp.End - sp.Start) * 1e3)
}

// add records an already measured interval as a span.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: float64(start.Sub(t.t0)) / 1e3, End: float64(end.Sub(t.t0)) / 1e3,
	})
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time in
// milliseconds: each span's duration minus the part of its interval
// that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, sp := range t.spans {
		if sp.Parent != 0 && sp.End >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]float64{sp.Start, sp.End})
		}
	}
	self := map[string]float64{}
	for _, sp := range t.spans {
		if sp.End < 0 {
			continue
		}
		d := sp.End - sp.Start - covered(children[sp.ID], sp.Start, sp.End)
		self[sp.Name] += d / 1e3
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return bw.Flush()
}
