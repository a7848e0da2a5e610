package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. xs is sorted in place; an empty xs gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// median is the middle sample of xs (the mean of the two middle ones
// for an even count). xs is sorted in place; an empty xs gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method),
// the spread rule the benchmark's steadiness is judged by. xs is
// sorted in place; fewer than two samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic: rank i*(n+1)/4, clamped to
		// 1..n-1, interpolated (or extrapolated) by the remainder.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// windows is how many equal stretches a measured phase is cut into.
// A run reports rates and latency percentiles as medians over the
// stretches, so a host episode that covers less than half of the run
// does not move them.
const windows = 10

// Latency histogram buckets: bucket i holds latencies in
// [histMin·histRatio^i, histMin·histRatio^(i+1)) µs, and a percentile
// reads as its bucket's geometric middle, within 0.25% of the sample.
// Latencies under histMin fall in bucket 0; the last bucket, from about
// 100 s, holds everything above.
const (
	histMin     = 1.0 // µs
	histRatio   = 1.005
	histBuckets = 3700
)

var logHistRatio = math.Log(histRatio)

// hist is a latency histogram of fixed size.
type hist struct {
	n      int
	counts []uint32
}

func newHist() hist { return hist{counts: make([]uint32, histBuckets)} }

// add records one latency in µs.
func (h *hist) add(v float64) {
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)/logHistRatio), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile (0 < q <= 1) by the nearest-rank rule,
// as percentile gives it for the samples themselves; an empty
// histogram gives 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	seen := 0
	for i, c := range h.counts {
		if seen += int(c); seen >= rank {
			return histMin * math.Pow(histRatio, float64(i)+0.5)
		}
	}
	return histMin * math.Pow(histRatio, histBuckets-0.5)
}

// opLog records a phase's verified operations: how many completed in
// each window of the phase, and a latency histogram per window. Its
// memory is allocated up front and does not grow with the run, so
// recording neither allocates nor changes the live heap that the
// system under test shares with the benchmark. One goroutine owns an
// opLog; merge folds the callers' logs together afterwards.
type opLog struct {
	d    time.Duration // the measured length of the phase
	wins [windows]hist
	late int // operations completed at or after d, not counted
}

func newOpLog(d time.Duration) *opLog {
	o := &opLog{d: d}
	for k := range o.wins {
		o.wins[k] = newHist()
	}
	return o
}

// add records an operation that completed at time at (from the phase
// start) and took lat.
func (o *opLog) add(at, lat time.Duration) {
	if at < 0 || at >= o.d {
		o.late++
		return
	}
	o.wins[int(at*windows/o.d)].add(us(lat))
}

func (o *opLog) merge(p *opLog) {
	for k := range o.wins {
		o.wins[k].merge(p.wins[k])
	}
	o.late += p.late
}

// count is the number of operations in the windows.
func (o *opLog) count() int {
	n := 0
	for k := range o.wins {
		n += o.wins[k].n
	}
	return n
}

// whole is the latency histogram of the whole phase.
func (o *opLog) whole() hist {
	h := newHist()
	for k := range o.wins {
		h.merge(o.wins[k])
	}
	return h
}

// windowStats is what an opLog found in each window: operations
// completed per second, and the 50th and 99th latency percentiles (µs)
// of the windows that had any.
type windowStats struct {
	rate, p50, p99 []float64
}

func (o *opLog) stats() windowStats {
	var ws windowStats
	w := o.d.Seconds() / windows
	for k := range o.wins {
		h := &o.wins[k]
		ws.rate = append(ws.rate, float64(h.n)/w)
		if h.n > 0 {
			ws.p50 = append(ws.p50, h.quantile(0.50))
			ws.p99 = append(ws.p99, h.quantile(0.99))
		}
	}
	return ws
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a half-open time range [lo, hi) on one recorder's clock.
type interval struct{ lo, hi time.Duration }

// selfTime is the parent's duration minus the part of it covered by
// the union of its children's intervals; children may overlap each
// other and stick out of the parent (only the overlap with the parent
// counts).
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			covered += cur.hi - cur.lo
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.hi - parent.lo - covered
}

// quorumWait is how long a fan-out kept running after its quorum was
// made: with a majority of two out of three replicas, the last reply's
// end minus the second reply's end. Fewer than two replies give 0.
func quorumWait(replyEnds []time.Duration) time.Duration {
	if len(replyEnds) < 2 {
		return 0
	}
	ends := append([]time.Duration(nil), replyEnds...)
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return ends[len(ends)-1] - ends[1]
}
