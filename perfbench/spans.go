package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function of the system.
type span struct {
	name   string
	id     uint64 // one per request (or injection run)
	parent int    // index of the span that caused it, -1 for a root
	start  time.Duration
	end    time.Duration
}

// recorder keeps every span of a traced run in memory until the run
// ends; spans are analysed only after the measured phase. A nil
// *recorder records nothing, so untraced runs call the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	roots map[uint64]int // request id -> its root span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), roots: map[uint64]int{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// begin opens a root span for request id and returns its index.
func (r *recorder) begin(name string, id uint64) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: id, parent: -1, start: t})
	i := len(r.spans) - 1
	r.roots[id] = i
	return i
}

// beginChild opens a span caused by request id's root span.
func (r *recorder) beginChild(name string, id uint64) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent, ok := r.roots[id]
	if !ok {
		parent = -1
	}
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: t})
	return len(r.spans) - 1
}

// finish closes span i.
func (r *recorder) finish(i int) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[i].end = t
	r.mu.Unlock()
}

// add records a span whose bounds the caller measured itself.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns a copy of the spans recorded so far (a replica call
// that timed out may still close its span after the phase ended).
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations, in microseconds, of every closed
// span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.name == name && s.end > 0 {
			out = append(out, us(s.end-s.start))
		}
	}
	return out
}

// children groups the closed spans named child by their parent index.
func (r *recorder) children(child string) map[int][]span {
	out := map[int][]span{}
	for _, s := range r.all() {
		if s.name == child && s.parent >= 0 && s.end > 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
