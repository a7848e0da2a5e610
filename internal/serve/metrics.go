package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/htm"
	"repro/internal/report"
	"repro/internal/vm"
)

// histBucketsPerOctave gives the latency histogram ~25% relative
// resolution: each power-of-two nanosecond octave is split in four.
const histBucketsPerOctave = 4

// maxHistBuckets covers latencies up to 2^63 ns.
const maxHistBuckets = 64 * histBucketsPerOctave

// reservoirSize bounds the sliding window of raw latency samples kept
// for exact percentiles (the histogram's ~25% bucket resolution is too
// coarse for tail reporting).
const reservoirSize = 1024

// latencyHist is a log-scaled histogram of request latencies plus a
// bounded reservoir of the most recent raw samples.
type latencyHist struct {
	counts [maxHistBuckets]uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
	// samples is a sliding-window ring of the last reservoirSize
	// latencies in nanoseconds. Once nseen wraps past the capacity the
	// ring is NOT in insertion order, and even before that samples
	// arrive unsorted — percentile() must always sort its snapshot.
	samples []int64
	nseen   uint64
}

func histBucket(d time.Duration) int {
	ns := uint64(d)
	if ns < 2 {
		return 0
	}
	oct := bits.Len64(ns) - 1
	frac := 0
	if oct >= 2 {
		frac = int((ns >> (oct - 2)) & 3)
	}
	return oct*histBucketsPerOctave + frac
}

// bucketUpper is the inclusive upper bound of a bucket in nanoseconds.
func bucketUpper(b int) float64 {
	oct := b / histBucketsPerOctave
	frac := b % histBucketsPerOctave
	return float64(uint64(1)<<oct) * (1 + float64(frac+1)/4)
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, int64(d))
	} else {
		h.samples[h.nseen%reservoirSize] = int64(d)
	}
	h.nseen++
}

// percentile returns the q-th (0..1) latency percentile in seconds,
// computed from the sample reservoir. The reservoir is a wrapping
// ring, so the snapshot is unsorted whenever it has wrapped (and
// usually before): sort defensively every time rather than assuming
// insertion order survived.
func (h *latencyHist) percentile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if len(h.samples) == 0 {
		return h.bucketPercentile(q)
	}
	snap := append([]int64(nil), h.samples...)
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	idx := int(q * float64(len(snap)))
	if idx >= len(snap) {
		idx = len(snap) - 1
	}
	return float64(snap[idx]) / 1e9
}

// bucketPercentile is the histogram-resolution fallback (exact to
// ~25%), used only when no raw samples exist.
func (h *latencyHist) bucketPercentile(q float64) float64 {
	want := uint64(q * float64(h.total))
	if want >= h.total {
		want = h.total - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > want {
			return bucketUpper(b) / 1e9
		}
	}
	return float64(h.max) / 1e9
}

// Metrics is the serving layer's live accounting: every request,
// retry, quarantine, VM run, HTM abort and fault event lands here.
type Metrics struct {
	mu    sync.Mutex
	start time.Time

	requests  uint64
	responses uint64
	failed    uint64
	rejected  uint64
	retries   uint64

	runs        uint64
	faultedRuns uint64
	runStatus   map[string]uint64
	quarantines uint64
	rebuilds    uint64
	// quarantinedNow is the number of instances currently in the
	// quarantine/rebuild cycle (entered on a faulted batch, exited on
	// the first clean batch after rebuild).
	quarantinedNow int
	chaos          map[string]uint64
	deadlines      uint64

	injected uint64
	// corrected counts faults absorbed without failing the run: HAFT
	// transaction rollbacks plus TMR majority-vote corrections.
	// voteCorrections is the TMR share of that total.
	corrected       uint64
	voteCorrections uint64
	// corrupted counts corrupted replies DELIVERED to clients; with
	// verification on, the serving layer's invariant is that this
	// stays zero (detections become verifyRejects and retries).
	corrupted     uint64
	verifyRejects uint64

	txStarted   uint64
	txCommitted uint64
	fallbacks   uint64
	aborts      map[string]uint64

	hist latencyHist
	// queueHist and execHist split each response's latency at the
	// instant its batch started executing: queue wait (queueing + retry
	// backoffs) and execution (machine reset, request pokes, VM run and
	// verification). Each keeps its own reservoir so the split has the
	// same percentile fidelity as the end-to-end histogram.
	queueHist latencyHist
	execHist  latencyHist

	poolSize   int
	poolBusy   int
	queueDepth func() int
}

func newMetrics(poolSize int, queueDepth func() int) *Metrics {
	return &Metrics{
		start:      time.Now(),
		runStatus:  make(map[string]uint64),
		aborts:     make(map[string]uint64),
		chaos:      make(map[string]uint64),
		poolSize:   poolSize,
		queueDepth: queueDepth,
	}
}

func (m *Metrics) request() { m.mu.Lock(); m.requests++; m.mu.Unlock() }
func (m *Metrics) rejectedN(n int) {
	m.mu.Lock()
	m.rejected += uint64(n)
	m.mu.Unlock()
}
func (m *Metrics) retry() { m.mu.Lock(); m.retries++; m.mu.Unlock() }
func (m *Metrics) failure() {
	m.mu.Lock()
	m.failed++
	m.mu.Unlock()
}
func (m *Metrics) quarantine() {
	m.mu.Lock()
	m.quarantines++
	m.rebuilds++
	m.mu.Unlock()
}

// quarantineEnter/quarantineExit track the live count of instances in
// the quarantine/rebuild cycle (exported as the
// serve_quarantined_instances gauge).
func (m *Metrics) quarantineEnter() { m.mu.Lock(); m.quarantinedNow++; m.mu.Unlock() }
func (m *Metrics) quarantineExit() {
	m.mu.Lock()
	if m.quarantinedNow > 0 {
		m.quarantinedNow--
	}
	m.mu.Unlock()
}

func (m *Metrics) injectedFault() { m.mu.Lock(); m.injected++; m.mu.Unlock() }

// verifyReject counts replies the host-side verifier caught as
// corrupted and routed back into the retry path (never delivered).
func (m *Metrics) verifyReject(n int) { m.mu.Lock(); m.verifyRejects += uint64(n); m.mu.Unlock() }

// chaosEvent accounts one chaos-layer failure ("kill", "hang",
// "storm"); kills also count as instance rebuilds.
func (m *Metrics) chaosEvent(kind string) {
	m.mu.Lock()
	m.chaos[kind]++
	if kind == "kill" {
		m.rebuilds++
	}
	m.mu.Unlock()
}

func (m *Metrics) deadlineExceeded() { m.mu.Lock(); m.deadlines++; m.mu.Unlock() }

func (m *Metrics) response(latency, queueWait, exec time.Duration) {
	m.mu.Lock()
	m.responses++
	m.hist.observe(latency)
	m.queueHist.observe(queueWait)
	m.execHist.observe(exec)
	m.mu.Unlock()
}

func (m *Metrics) busy(delta int) {
	m.mu.Lock()
	m.poolBusy += delta
	m.mu.Unlock()
}

// run folds one finished VM run's statistics into the registry.
func (m *Metrics) run(status vm.Status, st vm.RunStats, hs htm.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs++
	m.runStatus[status.String()]++
	if status != vm.StatusOK {
		m.faultedRuns++
	}
	m.corrected += st.Recovered + st.CorrectedFaults
	m.voteCorrections += st.CorrectedFaults
	m.txStarted += hs.Started
	m.txCommitted += hs.Committed
	m.fallbacks += hs.FallbackRuns
	for cause, n := range hs.Aborted {
		m.aborts[cause.String()] += n
	}
}

// Snapshot is a point-in-time export of the registry, JSON-ready.
type Snapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	Requests  uint64 `json:"requests"`
	Responses uint64 `json:"responses"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	Retries   uint64 `json:"retries"`

	Runs        uint64            `json:"vm_runs"`
	FaultedRuns uint64            `json:"faulted_runs"`
	RunStatus   map[string]uint64 `json:"run_status"`
	Quarantines uint64            `json:"quarantines"`
	Rebuilds    uint64            `json:"rebuilds"`
	// QuarantinedInstances is the number of instances currently
	// quarantined (rebuilt but not yet re-proven by a clean batch).
	QuarantinedInstances int `json:"quarantined_instances"`

	ChaosEvents      map[string]uint64 `json:"chaos_events"`
	DeadlineFailures uint64            `json:"deadline_failures"`

	InjectedFaults uint64 `json:"injected_faults"`
	// CorrectedFaults counts faults absorbed without failing the run
	// (HAFT rollbacks plus TMR vote corrections); VoteCorrections is
	// the TMR majority-vote share of that total.
	CorrectedFaults uint64 `json:"corrected_faults"`
	VoteCorrections uint64 `json:"vote_corrections"`
	// VerifyRejects counts corrupted replies the verifier caught and
	// converted into retries; CorruptedReplies counts corruptions
	// actually delivered (zero while verification is on).
	VerifyRejects    uint64 `json:"verify_rejects"`
	CorruptedReplies uint64 `json:"corrupted_replies"`

	TxStarted    uint64            `json:"tx_started"`
	TxCommitted  uint64            `json:"tx_committed"`
	FallbackRuns uint64            `json:"fallback_runs"`
	AbortCauses  map[string]uint64 `json:"abort_causes"`

	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyP50    float64 `json:"latency_p50_s"`
	LatencyP95    float64 `json:"latency_p95_s"`
	LatencyP99    float64 `json:"latency_p99_s"`
	LatencyMean   float64 `json:"latency_mean_s"`
	LatencyMax    float64 `json:"latency_max_s"`

	// The queue-wait / execution split of the same latencies (the two
	// components sum to the end-to-end figure per response).
	QueueWaitP50  float64 `json:"queue_wait_p50_s"`
	QueueWaitP95  float64 `json:"queue_wait_p95_s"`
	QueueWaitP99  float64 `json:"queue_wait_p99_s"`
	QueueWaitMean float64 `json:"queue_wait_mean_s"`
	ExecP50       float64 `json:"exec_p50_s"`
	ExecP95       float64 `json:"exec_p95_s"`
	ExecP99       float64 `json:"exec_p99_s"`
	ExecMean      float64 `json:"exec_mean_s"`

	QueueDepth int `json:"queue_depth"`
	PoolBusy   int `json:"pool_busy"`
	PoolSize   int `json:"pool_size"`
}

// Snapshot captures the current state of the registry.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		ElapsedSeconds:       time.Since(m.start).Seconds(),
		Requests:             m.requests,
		Responses:            m.responses,
		Failed:               m.failed,
		Rejected:             m.rejected,
		Retries:              m.retries,
		Runs:                 m.runs,
		FaultedRuns:          m.faultedRuns,
		RunStatus:            map[string]uint64{},
		Quarantines:          m.quarantines,
		Rebuilds:             m.rebuilds,
		QuarantinedInstances: m.quarantinedNow,
		ChaosEvents:          map[string]uint64{},
		DeadlineFailures:     m.deadlines,
		InjectedFaults:       m.injected,
		CorrectedFaults:      m.corrected,
		VoteCorrections:      m.voteCorrections,
		VerifyRejects:        m.verifyRejects,
		CorruptedReplies:     m.corrupted,
		TxStarted:            m.txStarted,
		TxCommitted:          m.txCommitted,
		FallbackRuns:         m.fallbacks,
		AbortCauses:          map[string]uint64{},
		LatencyP50:           m.hist.percentile(0.50),
		LatencyP95:           m.hist.percentile(0.95),
		LatencyP99:           m.hist.percentile(0.99),
		LatencyMax:           float64(m.hist.max) / 1e9,
		QueueWaitP50:         m.queueHist.percentile(0.50),
		QueueWaitP95:         m.queueHist.percentile(0.95),
		QueueWaitP99:         m.queueHist.percentile(0.99),
		ExecP50:              m.execHist.percentile(0.50),
		ExecP95:              m.execHist.percentile(0.95),
		ExecP99:              m.execHist.percentile(0.99),
		PoolBusy:             m.poolBusy,
		PoolSize:             m.poolSize,
	}
	for k, v := range m.runStatus {
		s.RunStatus[k] = v
	}
	for k, v := range m.chaos {
		s.ChaosEvents[k] = v
	}
	for k, v := range m.aborts {
		s.AbortCauses[k] = v
	}
	if m.hist.total > 0 {
		s.LatencyMean = m.hist.sum.Seconds() / float64(m.hist.total)
	}
	if m.queueHist.total > 0 {
		s.QueueWaitMean = m.queueHist.sum.Seconds() / float64(m.queueHist.total)
	}
	if m.execHist.total > 0 {
		s.ExecMean = m.execHist.sum.Seconds() / float64(m.execHist.total)
	}
	if s.ElapsedSeconds > 0 {
		s.ThroughputRPS = float64(m.responses) / s.ElapsedSeconds
	}
	if m.queueDepth != nil {
		s.QueueDepth = m.queueDepth()
	}
	return s
}

// JSON renders the snapshot as one JSON object.
func (s Snapshot) JSON() []byte {
	b, _ := json.Marshal(s)
	return b
}

// Summary renders the snapshot as a human-readable report table.
func (s Snapshot) Summary() string {
	t := &report.Table{
		Title:  "serve: request-serving metrics",
		Header: []string{"metric", "value"},
	}
	t.AddF(1, "elapsed (s)", s.ElapsedSeconds)
	t.AddF(0, "requests", s.Requests)
	t.AddF(0, "responses", s.Responses)
	t.AddF(0, "failed", s.Failed)
	t.AddF(0, "rejected (backpressure)", s.Rejected)
	t.AddF(1, "throughput (req/s)", s.ThroughputRPS)
	t.Add("latency p50/p95/p99 (ms)", fmt.Sprintf("%.3f / %.3f / %.3f",
		s.LatencyP50*1e3, s.LatencyP95*1e3, s.LatencyP99*1e3))
	t.AddF(3, "latency mean (ms)", s.LatencyMean*1e3)
	t.Add("queue wait p50/p95/p99 (ms)", fmt.Sprintf("%.3f / %.3f / %.3f",
		s.QueueWaitP50*1e3, s.QueueWaitP95*1e3, s.QueueWaitP99*1e3))
	t.Add("exec p50/p95/p99 (ms)", fmt.Sprintf("%.3f / %.3f / %.3f",
		s.ExecP50*1e3, s.ExecP95*1e3, s.ExecP99*1e3))
	t.AddF(0, "vm runs", s.Runs)
	t.AddF(0, "faulted runs", s.FaultedRuns)
	t.Add("run status", mapLine(s.RunStatus))
	t.AddF(0, "retries", s.Retries)
	t.AddF(0, "quarantines", s.Quarantines)
	t.AddF(0, "instance rebuilds", s.Rebuilds)
	t.AddF(0, "quarantined now", s.QuarantinedInstances)
	t.Add("chaos events", mapLine(s.ChaosEvents))
	t.AddF(0, "deadline failures", s.DeadlineFailures)
	t.AddF(0, "injected faults (SEU)", s.InjectedFaults)
	t.AddF(0, "corrected faults (rollback + votes)", s.CorrectedFaults)
	t.AddF(0, "vote corrections (tmr)", s.VoteCorrections)
	t.AddF(0, "verification rejects (caught SDCs)", s.VerifyRejects)
	t.AddF(0, "corrupted replies", s.CorruptedReplies)
	t.AddF(0, "transactions started", s.TxStarted)
	t.AddF(0, "transactions committed", s.TxCommitted)
	t.AddF(0, "fallback runs", s.FallbackRuns)
	t.Add("abort causes", mapLine(s.AbortCauses))
	t.AddF(0, "queue depth", s.QueueDepth)
	t.Add("pool occupancy", fmt.Sprintf("%d/%d", s.PoolBusy, s.PoolSize))
	return t.String()
}

// WriteProm renders the registry in Prometheus text exposition format
// (the serve half of the `-debug-addr` /metrics endpoint). Counter
// families are sorted and label values escaped-free (status/cause
// names are identifiers), so scrapes are deterministic for a given
// state.
func (m *Metrics) WriteProm(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP haft_serve_%s %s\n# TYPE haft_serve_%s counter\nhaft_serve_%s %d\n",
			name, help, name, name, v)
	}
	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP haft_serve_%s %s\n# TYPE haft_serve_%s gauge\nhaft_serve_%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	labeled := func(name, help, label string, vals map[string]uint64) {
		fmt.Fprintf(w, "# HELP haft_serve_%s %s\n# TYPE haft_serve_%s counter\n", name, help, name)
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "haft_serve_%s{%s=%q} %d\n", name, label, k, vals[k])
		}
	}
	c("requests_total", "requests submitted", m.requests)
	c("responses_total", "responses delivered", m.responses)
	c("failed_total", "requests failed after retries", m.failed)
	c("rejected_total", "requests rejected by backpressure", m.rejected)
	c("retries_total", "request retries", m.retries)
	c("runs_total", "VM batch runs", m.runs)
	c("faulted_runs_total", "VM runs ending in a non-ok status", m.faultedRuns)
	labeled("run_status_total", "VM runs by final status", "status", m.runStatus)
	c("quarantines_total", "instance quarantines", m.quarantines)
	c("rebuilds_total", "instance machine rebuilds", m.rebuilds)
	g("quarantined_instances", "instances currently quarantined", float64(m.quarantinedNow))
	labeled("chaos_events_total", "chaos-layer events", "kind", m.chaos)
	c("deadline_failures_total", "requests failed on deadline", m.deadlines)
	c("injected_faults_total", "SEU campaign injections", m.injected)
	c("corrected_faults_total", "faults absorbed by tx rollback or TMR majority votes", m.corrected)
	c("vote_corrections_total", "faults corrected in place by TMR majority votes", m.voteCorrections)
	c("verify_rejects_total", "corrupted replies caught by verification", m.verifyRejects)
	c("corrupted_replies_total", "corrupted replies delivered", m.corrupted)
	c("tx_started_total", "hardware transactions started", m.txStarted)
	c("tx_committed_total", "hardware transactions committed", m.txCommitted)
	c("fallback_runs_total", "non-transactional fallback runs", m.fallbacks)
	labeled("tx_aborts_total", "transaction aborts by cause", "cause", m.aborts)
	g("latency_p50_seconds", "median request latency", m.hist.percentile(0.50))
	g("latency_p95_seconds", "95th percentile request latency", m.hist.percentile(0.95))
	g("latency_p99_seconds", "99th percentile request latency", m.hist.percentile(0.99))
	g("latency_max_seconds", "maximum request latency", float64(m.hist.max)/1e9)
	g("queue_wait_p50_seconds", "median queue wait (queueing + retry backoffs)", m.queueHist.percentile(0.50))
	g("queue_wait_p95_seconds", "95th percentile queue wait", m.queueHist.percentile(0.95))
	g("queue_wait_p99_seconds", "99th percentile queue wait", m.queueHist.percentile(0.99))
	g("queue_wait_max_seconds", "maximum queue wait", float64(m.queueHist.max)/1e9)
	g("exec_p50_seconds", "median execution time (VM run + verification)", m.execHist.percentile(0.50))
	g("exec_p95_seconds", "95th percentile execution time", m.execHist.percentile(0.95))
	g("exec_p99_seconds", "99th percentile execution time", m.execHist.percentile(0.99))
	g("exec_max_seconds", "maximum execution time", float64(m.execHist.max)/1e9)
	g("pool_size", "warm pool size", float64(m.poolSize))
	g("pool_busy", "pool instances currently running a batch", float64(m.poolBusy))
	if m.queueDepth != nil {
		g("queue_depth", "requests waiting in the queue", float64(m.queueDepth()))
	}
	// The latency histogram as a native Prometheus histogram: only
	// non-empty buckets are listed (plus +Inf), cumulative as the
	// format requires.
	fmt.Fprintf(w, "# HELP haft_serve_latency_seconds request latency distribution\n")
	fmt.Fprintf(w, "# TYPE haft_serve_latency_seconds histogram\n")
	var cum uint64
	for b, n := range m.hist.counts {
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(w, "haft_serve_latency_seconds_bucket{le=%q} %d\n",
			strconv.FormatFloat(bucketUpper(b)/1e9, 'g', 6, 64), cum)
	}
	fmt.Fprintf(w, "haft_serve_latency_seconds_bucket{le=\"+Inf\"} %d\n", m.hist.total)
	fmt.Fprintf(w, "haft_serve_latency_seconds_sum %s\n",
		strconv.FormatFloat(m.hist.sum.Seconds(), 'g', -1, 64))
	fmt.Fprintf(w, "haft_serve_latency_seconds_count %d\n", m.hist.total)
}

func mapLine(m map[string]uint64) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += "  "
		}
		out += fmt.Sprintf("%s=%d", k, m[k])
	}
	return out
}
