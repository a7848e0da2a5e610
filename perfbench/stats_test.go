package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// Histogram percentiles follow the nearest-rank rule of percentile,
// to within the bucket width.
func TestHistQuantileMatchesPercentile(t *testing.T) {
	var xs []float64
	h := newHist()
	for i := 0; i < 1000; i++ {
		x := 0.5 + float64(i*i%997)*3.7
		xs = append(xs, x)
		h.add(x)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := percentile(append([]float64(nil), xs...), q)
		got := h.quantile(q)
		if want < histMin {
			want = histMin // everything under histMin shares bucket 0
		}
		if math.Abs(got-want) > want*(histRatio-1) {
			t.Errorf("quantile(%v) = %v, want %v within one bucket", q, got, want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("quantile of an empty histogram is not 0")
	}
}

// Operations are counted in the window they completed in; a late one
// is left out, and each window has its own percentiles, so one slow
// window moves the medians over windows by nothing.
func TestOpLogWindows(t *testing.T) {
	d := time.Duration(windows) * time.Second
	o := newOpLog(d)
	for k := 0; k < windows; k++ {
		n, l := 100, 10*time.Microsecond
		if k == 3 { // a stall: few operations, slow ones
			n, l = 5, time.Millisecond
		}
		for i := 0; i < n; i++ {
			o.add(time.Duration(k)*time.Second+time.Duration(i)*time.Second/time.Duration(n), l)
		}
	}
	o.add(d, time.Nanosecond) // completed after the phase
	other := newOpLog(d)
	other.add(0, 10*time.Microsecond)
	o.merge(other)
	ws := o.stats()
	if o.late != 1 || o.count() != 9*100+5+1 || len(ws.rate) != windows {
		t.Fatalf("late %d, count %d, %d windows", o.late, o.count(), len(ws.rate))
	}
	if ws.rate[0] != 101 || ws.rate[3] != 5 || math.Abs(ws.p99[3]-1000) > 5 {
		t.Errorf("window rates %v, stall p99 %v", ws.rate, ws.p99[3])
	}
	if m := median(ws.rate); m != 100 {
		t.Errorf("median rate %v, want 100", m)
	}
	if m := median(ws.p50); math.Abs(m-10) > 0.05 {
		t.Errorf("median p50 %v, want 10", m)
	}
	if h := o.whole(); h.n != o.count() {
		t.Errorf("whole-phase histogram has %d of %d operations", h.n, o.count())
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 6, 8, 10}, 3, 9},
	} {
		q1, q3 := quartiles(append([]float64(nil), c.xs...))
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	iv := func(lo, hi int) interval { return interval{time.Duration(lo), time.Duration(hi)} }
	for _, c := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 100), nil, 100},
		{"disjoint", iv(0, 100), []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping fan-out", iv(0, 100), []interval{iv(10, 60), iv(20, 40), iv(50, 70)}, 40},
		{"nested", iv(0, 100), []interval{iv(10, 90), iv(20, 30)}, 20},
		{"sticks out of parent", iv(0, 100), []interval{iv(-50, 10), iv(90, 200)}, 80},
		{"outside parent", iv(0, 100), []interval{iv(150, 200)}, 100},
		{"touching", iv(0, 100), []interval{iv(10, 20), iv(20, 30)}, 80},
	} {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuorumWaitIsLastMinusSecondReply(t *testing.T) {
	d := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n)
		}
		return out
	}
	for _, c := range []struct {
		ends []time.Duration
		want time.Duration
	}{
		{d(30, 10, 20), 10},  // replies at 10, 20, 30: quorum at 20
		{d(10, 12, 100), 88}, // a straggler
		{d(5, 5, 5), 0},
		{d(7, 9), 0}, // two replies: the quorum reply is the last
		{d(7), 0},
	} {
		if got := quorumWait(c.ends); got != c.want {
			t.Errorf("quorumWait(%v) = %v, want %v", c.ends, got, c.want)
		}
	}
}

// Every metric BENCHMARK.json declares is printed with the same unit,
// and nothing else is printed.
func TestUnitsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  map[string]string
	}{{b.EndToEnd, endToEndUnits}, {b.PerLayer, perLayerUnits}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(c.declared), len(c.printed))
		}
		for _, m := range c.declared {
			if u, ok := c.printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: declared unit %q, printed %q (present %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}
