package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// kv-cluster: clusterNodes in-process TMR nodes (verification off, an
// SEU campaign on) behind a router with the default configuration,
// driven by clusterCallers goroutines calling Cluster.Do directly.
const (
	clusterNodes   = 3
	clusterCallers = 2
	clusterSEURate = 0.01
)

// spanBackend records one span per replica call of a fan-out, as a
// child of the request's Cluster.Do span. It embeds the node it wraps,
// so ID, Ping and Close reach it unchanged, and so do Kill and
// Restart: the router restarts only backends that implement
// cluster.Killable, and the traced run must take the same recovery
// path as the untraced one.
type spanBackend struct {
	*cluster.LocalBackend
	rec  *atomic.Pointer[recorder]
	ping *pingMemo
}

// pingMemo lets the end-of-run audit ask a node whether it is live
// once instead of once per acknowledged write. CheckInvariants pings a
// replica for every acknowledged write it checks, and each ping is a
// full Server.Health snapshot (about 1.3 ms), so a 30 s run would spend
// minutes auditing. The audit runs after the load has stopped; report
// pings every node again afterwards and repeats the audit unmemoized
// if any answer changed. Outside the audit every Ping reaches the node.
type pingMemo struct {
	on     atomic.Bool
	mu     sync.Mutex
	probed bool
	err    error
}

func (b spanBackend) Ping() error {
	if b.ping == nil || !b.ping.on.Load() {
		return b.LocalBackend.Ping()
	}
	m := b.ping
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.probed {
		m.err, m.probed = b.LocalBackend.Ping(), true
	}
	return m.err
}

func (b spanBackend) Do(req serve.Request) (uint64, error) {
	rec := b.rec.Load()
	i := rec.beginChild("cluster.node_call", req.TraceID)
	v, err := b.LocalBackend.Do(req)
	rec.finish(i)
	return v, err
}

type kvCluster struct {
	seed  int64
	cfg   serve.Config
	nodes []*cluster.LocalBackend
	pings []*pingMemo
	c     *cluster.Cluster
	rec   atomic.Pointer[recorder]
	gens  []*kvGen
	next  []uint64 // per-caller request id counters

	// Router and node metrics around the last measured phase.
	before, after         cluster.Snapshot
	nodeBefore, nodeAfter []serve.Snapshot
	// Sample counts behind the traced run's percentiles.
	samples map[string]int
}

func clusterNodeConfig(seed int64, node int) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Harden = core.DefaultConfig()
	cfg.Harden.Mode = core.ModeTMR
	cfg.Verify = false
	cfg.SEURate = clusterSEURate
	cfg.Seed = seed*7919 + int64(node)
	return cfg
}

func setupKVCluster(seed int64) (system, map[string]float64, error) {
	k := &kvCluster{seed: seed, cfg: clusterNodeConfig(seed, 0)}
	backends := make([]cluster.Backend, clusterNodes)
	var newServer time.Duration
	for i := 0; i < clusterNodes; i++ {
		t0 := time.Now()
		n, err := cluster.NewLocalBackend(fmt.Sprintf("node-%d", i), clusterNodeConfig(seed, i))
		newServer += time.Since(t0)
		if err != nil {
			for _, o := range k.nodes {
				o.Close()
			}
			return nil, nil, err
		}
		k.nodes = append(k.nodes, n)
		k.pings = append(k.pings, &pingMemo{})
		backends[i] = spanBackend{LocalBackend: n, rec: &k.rec, ping: k.pings[i]}
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = seed
	t0 := time.Now()
	c, err := cluster.New(backends, ccfg)
	newCluster := time.Since(t0)
	if err != nil {
		for _, o := range k.nodes {
			o.Close()
		}
		return nil, nil, err
	}
	k.c = c
	for i := 0; i < clusterCallers; i++ {
		k.gens = append(k.gens, newKVGen(seed, i))
		k.next = append(k.next, uint64(i+1)<<48)
	}
	return k, map[string]float64{
		"serve.new_server_ms": ms(newServer) / clusterNodes,
		"cluster.new_ms":      ms(newCluster),
	}, nil
}

func (k *kvCluster) nodeMetrics() []serve.Snapshot {
	out := make([]serve.Snapshot, len(k.nodes))
	for i, n := range k.nodes {
		if srv := n.Server(); srv != nil {
			out[i] = srv.Metrics()
		}
	}
	return out
}

func (k *kvCluster) measure(d time.Duration, rec *recorder) (phase, error) {
	k.rec.Store(rec)
	defer k.rec.Store(nil)
	k.before, k.nodeBefore = k.c.Metrics(), k.nodeMetrics()
	done := make([]*opLog, clusterCallers)
	for i := range done {
		done[i] = newOpLog(d)
	}
	ops := make([]int, clusterCallers)
	bad := make([]int, clusterCallers)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for i := 0; i < clusterCallers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				word := k.gens[i].next()
				write, key, value := wordParts(word)
				k.next[i]++
				req := serve.Request{Write: write, Key: key, Value: value, TraceID: k.next[i]}
				s := rec.begin("cluster.do", req.TraceID)
				start := time.Now()
				v, err := k.c.Do(req)
				l := time.Since(start)
				rec.finish(s)
				ops[i]++
				if err != nil || v != workloads.KVReference(word, k.cfg.KV.ValueWork) {
					bad[i]++
					continue
				}
				done[i].add(time.Since(t0), l)
			}
		}(i)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(t0), done: done[0]}
	k.after, k.nodeAfter = k.c.Metrics(), k.nodeMetrics()
	for i := 0; i < clusterCallers; i++ {
		ph.ops += ops[i]
		ph.failed += bad[i]
		if i > 0 {
			ph.done.merge(done[i])
		}
	}
	for i := range k.nodes {
		ph.vmRuns += k.nodeAfter[i].Runs - min(k.nodeBefore[i].Runs, k.nodeAfter[i].Runs)
	}
	return ph, nil
}

func (k *kvCluster) simOverhead() (float64, error) {
	return kvSimOverhead(k.cfg, k.seed)
}

func (k *kvCluster) layers(tr phase, rec *recorder) (map[string]float64, error) {
	// A node restarted during the phase starts its counters from zero;
	// count it from there.
	before := append([]serve.Snapshot(nil), k.nodeBefore...)
	for i := range before {
		if k.nodeAfter[i].Requests < before[i].Requests {
			before[i] = serve.Snapshot{}
		}
	}
	out := serveLayers(before, k.nodeAfter)

	calls := rec.children("cluster.node_call")
	var self, quorum, callUS []float64
	requests := 0
	for i, s := range rec.all() {
		if s.name != "cluster.do" || s.end == 0 {
			continue
		}
		requests++
		kids := calls[i]
		ivs := make([]interval, len(kids))
		ends := make([]time.Duration, len(kids))
		for j, c := range kids {
			ivs[j] = interval{c.start, c.end}
			ends[j] = c.end
			callUS = append(callUS, us(c.end-c.start))
		}
		self = append(self, us(selfTime(interval{s.start, s.end}, ivs)))
		if len(kids) >= 2 {
			quorum = append(quorum, us(quorumWait(ends)))
		}
	}
	k.samples = map[string]int{"cluster.node_call": len(callUS), "cluster.quorum_wait": len(quorum)}
	out["cluster.self_us"] = mean(self)
	out["cluster.node_call_p50_us"] = percentile(callUS, 0.50)
	out["cluster.node_call_p99_us"] = percentile(callUS, 0.99)
	out["cluster.calls_per_req"] = float64(len(callUS)) / float64(max(requests, 1))
	out["cluster.quorum_wait_p99_us"] = percentile(quorum, 0.99)
	out["cluster.masked_replies"] = float64(k.after.DetectedCorruptions - k.before.DetectedCorruptions)
	out["cluster.retries"] = float64(k.after.Retries - k.before.Retries)
	if err := vmProbe(k.cfg, k.seed, out["serve.batch_mean"], rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// report runs the router's own safety audit: every acknowledged write
// lost or corrupted reply delivered counts as a failed operation.
func (k *kvCluster) report(r map[string]any) int {
	for _, m := range k.pings {
		m.probed = false
		m.on.Store(true)
	}
	inv := k.c.CheckInvariants()
	changed := false
	for i, m := range k.pings {
		m.on.Store(false)
		m.mu.Lock()
		probed, err := m.probed, m.err
		m.mu.Unlock()
		if probed && (err == nil) != (k.nodes[i].Ping() == nil) {
			changed = true
		}
	}
	if changed {
		inv = k.c.CheckInvariants()
	}
	r["audit_repeated_unmemoized"] = changed
	m := k.c.Metrics()
	r["invariants"] = inv
	r["router_retries"] = m.Retries
	r["masked_replies"] = m.DetectedCorruptions
	r["node_quarantines"] = m.Quarantines
	if k.samples != nil {
		r["percentile_samples"] = k.samples
	}
	return inv.LostAckedWrites + int(inv.DeliveredCorruptions)
}

func (k *kvCluster) close() { k.c.Close() }
