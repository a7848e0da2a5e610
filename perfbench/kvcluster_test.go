package main

import (
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// The router restarts a quarantined node only through cluster.Killable,
// so the span-recording wrapper must expose Kill and Restart of the
// node it wraps, and record one child span per call when tracing.
func TestSpanBackendForwardsKillableAndRecordsCalls(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.Pool = 1
	node, err := cluster.NewLocalBackend("node-0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec atomic.Pointer[recorder]
	memo := &pingMemo{}
	var be cluster.Backend = spanBackend{LocalBackend: node, rec: &rec, ping: memo}
	defer be.Close()

	k, ok := be.(cluster.Killable)
	if !ok {
		t.Fatal("span-recording backend does not implement cluster.Killable")
	}
	k.Kill()
	if node.Server() != nil || be.Ping() == nil {
		t.Fatal("Kill did not reach the wrapped node")
	}
	if err := k.Restart(); err != nil {
		t.Fatal(err)
	}
	if node.Server() == nil || be.Ping() != nil {
		t.Fatal("Restart did not bring the wrapped node back")
	}

	r := newRecorder()
	rec.Store(r)
	root := r.begin("cluster.do", 42)
	req := serve.Request{Write: true, Key: 3, Value: 9, TraceID: 42}
	v, err := be.Do(req)
	r.finish(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.KVReference(workloads.KVRequestWord(true, 3, 9), cfg.KV.ValueWork); v != want {
		t.Fatalf("reply %#x, want %#x", v, want)
	}
	calls := r.children("cluster.node_call")[root]
	if len(calls) != 1 || calls[0].id != 42 {
		t.Fatalf("recorded calls %+v, want one child span of request 42", calls)
	}

	// Untraced: no recorder, no spans, same reply.
	rec.Store(nil)
	if v2, err := be.Do(req); err != nil || v2 != v {
		t.Fatalf("untraced call: %#x, %v", v2, err)
	}
	if n := len(r.all()); n != 2 {
		t.Fatalf("%d spans after an untraced call, want 2", n)
	}

	// During the audit the first answer is kept; outside it every
	// Ping reaches the node.
	memo.on.Store(true)
	if err := be.Ping(); err != nil {
		t.Fatal(err)
	}
	k.Kill()
	if be.Ping() != nil {
		t.Fatal("memoized Ping probed the node again")
	}
	memo.on.Store(false)
	if be.Ping() == nil {
		t.Fatal("Ping outside the audit did not reach the killed node")
	}
}
