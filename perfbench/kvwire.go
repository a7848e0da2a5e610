package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workloads"
)

// kv-wire: the stock serving configuration (serve.DefaultConfig: HAFT,
// verification on, no SEU campaign) on an in-process server listening
// on loopback, driven by wireConns text-protocol connections that each
// keep wireWindow pipelined requests outstanding.
const (
	wireConns  = 2
	wireWindow = 16
)

type kvWire struct {
	seed int64
	cfg  serve.Config
	srv  *serve.Server
	ln   net.Listener
	gens []*kvGen

	// Server metrics around the last measured phase.
	before, after serve.Snapshot
}

func setupKVWire(seed int64) (system, map[string]float64, error) {
	w := &kvWire{seed: seed, cfg: serve.DefaultConfig()}
	t0 := time.Now()
	srv, err := serve.NewServer(w.cfg)
	if err != nil {
		return nil, nil, err
	}
	newServer := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	go srv.ServeListener(ln) // returns once Close closes the listener
	w.srv, w.ln = srv, ln
	for c := 0; c < wireConns; c++ {
		w.gens = append(w.gens, newKVGen(seed, c))
	}
	return w, map[string]float64{"serve.new_server_ms": ms(newServer)}, nil
}

func (w *kvWire) measure(d time.Duration, rec *recorder) (phase, error) {
	conns := make([]net.Conn, wireConns)
	for c := range conns {
		nc, err := net.Dial("tcp", w.ln.Addr().String())
		if err != nil {
			for _, o := range conns[:c] {
				o.Close()
			}
			return phase{}, err
		}
		conns[c] = nc
	}
	w.before = w.srv.Metrics()
	stats := make([]pipeStats, wireConns)
	bad := make([]int, wireConns)
	done := make([]*opLog, wireConns)
	for c := range done {
		done[c] = newOpLog(d)
	}
	errs := make([]error, wireConns)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < wireConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := uint64(c) << 48
			check := func(word, reply uint64, ok bool, l time.Duration) {
				if !ok || reply != workloads.KVReference(word, w.cfg.KV.ValueWork) {
					bad[c]++
				} else {
					done[c].add(time.Since(t0), l)
				}
				if rec != nil {
					id++
					end := rec.now()
					rec.add(span{name: "wire.request", id: id, parent: -1, start: end - l, end: end})
				}
			}
			stats[c], errs[c] = runPipelined(conns[c], wireWindow, deadline, w.gens[c].next, check)
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(t0), done: done[0]}
	w.after = w.srv.Metrics()
	for c := 0; c < wireConns; c++ {
		if errs[c] != nil {
			return ph, fmt.Errorf("connection %d: %w", c, errs[c])
		}
		ph.ops += stats[c].replies
		ph.failed += bad[c]
		if c > 0 {
			ph.done.merge(done[c])
		}
	}
	ph.vmRuns = w.after.Runs - w.before.Runs
	return ph, nil
}

func (w *kvWire) simOverhead() (float64, error) {
	return kvSimOverhead(w.cfg, w.seed)
}

func (w *kvWire) layers(tr phase, rec *recorder) (map[string]float64, error) {
	out := serveLayers([]serve.Snapshot{w.before}, []serve.Snapshot{w.after})
	n := w.after.Responses - w.before.Responses
	serverMean := diffMean(w.before.LatencyMean, w.before.Responses, w.after.LatencyMean, w.after.Responses, n)
	out["wire.overhead_us"] = mean(rec.durations("wire.request")) - serverMean
	if err := vmProbe(w.cfg, w.seed, out["serve.batch_mean"], rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (w *kvWire) report(r map[string]any) int {
	s := w.srv.Metrics()
	r["server_corrupted_replies"] = s.CorruptedReplies
	r["server_failed"] = s.Failed
	return 0
}

func (w *kvWire) close() { w.srv.Close() }

// diffMean is the mean of the samples added between two snapshots of
// a running mean (mean and count at each), in µs.
func diffMean(m0 float64, n0 uint64, m1 float64, n1 uint64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return (m1*float64(n1) - m0*float64(n0)) / float64(n) * 1e6
}

// serveLayers folds the serving-layer metrics of one or more servers
// over a phase (one snapshot per server at its start and end).
func serveLayers(before, after []serve.Snapshot) map[string]float64 {
	var reqs, runs, retries, corrected, resp uint64
	var qsum, esum float64
	for i := range before {
		b, a := before[i], after[i]
		n := a.Responses - b.Responses
		reqs += a.Requests - b.Requests
		runs += a.Runs - b.Runs
		retries += a.Retries - b.Retries
		corrected += a.CorrectedFaults - b.CorrectedFaults
		resp += n
		qsum += diffMean(b.QueueWaitMean, b.Responses, a.QueueWaitMean, a.Responses, n) * float64(n)
		esum += diffMean(b.ExecMean, b.Responses, a.ExecMean, a.Responses, n) * float64(n)
	}
	out := map[string]float64{
		"serve.corrected_faults": float64(corrected),
	}
	if runs > 0 {
		out["serve.batch_mean"] = float64(reqs) / float64(runs)
	}
	if reqs > 0 {
		out["serve.retry_share"] = float64(retries) / float64(reqs)
	}
	if resp > 0 {
		out["serve.queue_wait_us"] = qsum / float64(resp)
		out["serve.exec_us"] = esum / float64(resp)
	}
	return out
}
