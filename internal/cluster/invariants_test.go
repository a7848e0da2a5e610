package cluster

import (
	"sync/atomic"
	"testing"
	"time"
)

// pingCounter wraps a backend and counts its liveness probes.
type pingCounter struct {
	Backend
	pings atomic.Int64
}

func (p *pingCounter) Ping() error {
	p.pings.Add(1)
	return p.Backend.Ping()
}

// unmemoizedLost is the audit's lost-acked-writes count with a fresh
// probe for every question the logs ask.
func unmemoizedLost(c *Cluster) int {
	live := func(ni int) bool {
		n := c.nodes[ni]
		return n.getState() != nodeDead && n.be.Ping() == nil
	}
	lost := 0
	for _, lg := range c.shards {
		lost += lg.lost(live)
	}
	return lost
}

// TestCheckInvariantsPingsOncePerNode: one audit probes each node at
// most once however many acknowledged writes the logs hold, and counts
// the same lost writes as probing per write — with every node up, one
// killed, and all killed (every acked write lost).
func TestCheckInvariantsPingsOncePerNode(t *testing.T) {
	locals := localBackends(t, 3, nodeConfig())
	counters := make([]*pingCounter, len(locals))
	backends := make([]Backend, len(locals))
	for i, b := range locals {
		counters[i] = &pingCounter{Backend: b}
		backends[i] = counters[i]
	}
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.HealthInterval = time.Hour // keep the health checker's probes out of the counts
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writes = 40
	for i := 0; i < writes; i++ {
		if _, err := c.Put(uint64(i%128), uint64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	audit := func(phase string) int {
		t.Helper()
		want := unmemoizedLost(c)
		for _, pc := range counters {
			pc.pings.Store(0)
		}
		rep := c.CheckInvariants()
		for i, pc := range counters {
			if n := pc.pings.Load(); n > 1 {
				t.Fatalf("%s: node %d pinged %d times in one audit, want <= 1", phase, i, n)
			}
		}
		if rep.LostAckedWrites != want {
			t.Fatalf("%s: audit lost %d acked writes, probing per write finds %d",
				phase, rep.LostAckedWrites, want)
		}
		return rep.LostAckedWrites
	}
	if lost := audit("all up"); lost != 0 {
		t.Fatalf("all up: %d acked writes lost", lost)
	}
	locals[0].(*LocalBackend).Kill()
	if lost := audit("one killed"); lost != 0 {
		t.Fatalf("one killed: %d acked writes lost with a quorum still up", lost)
	}
	locals[1].(*LocalBackend).Kill()
	locals[2].(*LocalBackend).Kill()
	if lost := audit("all killed"); lost == 0 {
		t.Fatal("all killed: no acked write counted lost")
	}
}
