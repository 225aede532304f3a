package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest quantile of n samples that still has at
// least ten samples beyond it. With fewer than twenty samples no tail
// quantile above the median exists, and the median is reported instead.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if n < 20 || q < 0.5 {
		return 0.5
	}
	return q
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KB on Linux
}

const (
	gcPauseMetric  = "/sched/pauses/total/gc:seconds"
	heapObjsMetric = "/memory/classes/heap/objects:bytes"
)

// gcPauseTotal estimates the total stop-the-world GC pause time so far
// from the runtime's pause histogram, counting each pause at its
// bucket's midpoint (the lower bound for the open last bucket).
func gcPauseTotal() time.Duration {
	s := []metrics.Sample{{Name: gcPauseMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		mid := lo
		if !math.IsInf(hi, 1) {
			mid = (lo + hi) / 2
		}
		total += float64(c) * mid
	}
	return time.Duration(total * float64(time.Second))
}

// heapSampler polls the live heap size until stopped and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

// startHeapSampler starts polling every interval.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjsMetric}}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
				h.peak = s[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the polling and returns the peak heap in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
