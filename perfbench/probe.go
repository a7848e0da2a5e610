package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The VM probe reaches the layers under the serving pool from outside:
// it builds the workload's own hardened KV program through the public
// calls the server makes, and replays the workload's request words one
// batch per machine run, timing each call on the way.

const (
	probeWords  = 4096 // request words replayed by the traced probe
	simWords    = 512  // words behind sim_overhead, one per run
	compileReps = 3
	newMachReps = 20
	probeCaller = 0 // the probe replays the first caller's stream
)

// kvProgram is the serving program and hardening configuration a
// server with cfg builds (the same defaults serve.NewServer applies).
func kvProgram(cfg serve.Config) (*workloads.Program, core.Config) {
	kv := cfg.KV
	kv.MaxBatch = max(kv.MaxBatch, cfg.Batch)
	prog := workloads.KVServe(kv)
	hcfg := cfg.Harden
	if hcfg.TxThreshold == 0 {
		hcfg.TxThreshold = prog.TxThreshold
	}
	if hcfg.Blacklist == nil {
		hcfg.Blacklist = prog.Blacklist
	}
	return prog, hcfg
}

// kvMachine is one machine of the serving program with its request,
// count and reply buffer addresses.
type kvMachine struct {
	m                     *vm.Machine
	specs                 []vm.ThreadSpec
	reqs, nreq, replyAddr uint64
}

func newKVMachine(p *vm.Program, prog *workloads.Program) *kvMachine {
	m := vm.NewFromProgram(p, 1, vm.DefaultConfig())
	return &kvMachine{
		m:         m,
		specs:     prog.SpecsFor(1),
		reqs:      m.Mod.Global(workloads.KVReqsGlobal).Addr,
		nreq:      m.Mod.Global(workloads.KVNReqGlobal).Addr,
		replyAddr: m.Mod.Global(workloads.KVRepliesGlobal).Addr,
	}
}

func (k *kvMachine) poke(words []uint64) {
	for i, w := range words {
		k.m.Poke(k.reqs+uint64(i)*8, w)
	}
	k.m.Poke(k.nreq, uint64(len(words)))
}

func (k *kvMachine) peek(replies []uint64) {
	for i := range replies {
		replies[i] = k.m.Peek(k.replyAddr + uint64(i)*8)
	}
}

// buildKV hardens (or, with native, only lowers) the serving program
// and compiles it.
func buildKV(cfg serve.Config, native bool) (*vm.Program, *workloads.Program, error) {
	prog, hcfg := kvProgram(cfg)
	if native {
		hcfg.Mode = core.ModeNative
	}
	mod, err := core.Harden(prog.Module, hcfg)
	if err != nil {
		return nil, nil, err
	}
	hp := *prog
	hp.Module = mod
	return vm.Compile(mod), &hp, nil
}

// kvSimOverhead is the simulated cycles the hardened serving program
// spends on the workload's first simWords requests, one request per
// run, over what the native program spends on them.
func kvSimOverhead(cfg serve.Config, seed int64) (float64, error) {
	var cycles [2]uint64
	for i, native := range []bool{false, true} {
		p, prog, err := buildKV(cfg, native)
		if err != nil {
			return 0, err
		}
		k := newKVMachine(p, prog)
		g := newKVGen(seed, probeCaller)
		reply := make([]uint64, 1)
		for n := 0; n < simWords; n++ {
			word := g.next()
			k.m.Reset()
			k.poke([]uint64{word})
			if st := k.m.Run(k.specs...); st != vm.StatusOK {
				return 0, fmt.Errorf("sim run: %v", st)
			}
			k.peek(reply)
			if reply[0] != workloads.KVReference(word, cfg.KV.ValueWork) {
				return 0, fmt.Errorf("sim run: wrong reply for request %#x", word)
			}
			cycles[i] += k.m.Stats().Cycles
		}
	}
	return float64(cycles[0]) / float64(cycles[1]), nil
}

// vmProbe fills the VM-layer metrics: the hardening and compile times
// of the serving program, machine construction, and the per-run cost
// of Reset, HTM.Reset, Poke, Run, Peek and the host-side reference
// check, replaying the workload's words in batches of batchMean.
func vmProbe(cfg serve.Config, seed int64, batchMean float64, rec *recorder, out map[string]float64) error {
	prog, hcfg := kvProgram(cfg)
	var hardenMS, compileMS []float64
	var p *vm.Program
	var hp workloads.Program
	for i := 0; i < compileReps; i++ {
		t0 := time.Now()
		mod, err := core.Harden(prog.Module, hcfg)
		if err != nil {
			return err
		}
		t1 := time.Now()
		p = vm.Compile(mod)
		hardenMS = append(hardenMS, ms(t1.Sub(t0)))
		compileMS = append(compileMS, ms(time.Since(t1)))
		hp = *prog
		hp.Module = mod
	}
	out["core.harden_ms"] = median(hardenMS)
	out["vm.compile_ms"] = median(compileMS)

	var newMach time.Duration
	var k *kvMachine
	for i := 0; i < newMachReps; i++ {
		t0 := time.Now()
		k = newKVMachine(p, &hp)
		newMach += time.Since(t0)
	}
	out["vm.new_machine_us"] = us(newMach) / newMachReps

	b := int(math.Round(batchMean))
	b = min(max(b, 1), cfg.KV.MaxBatch, cfg.Batch)
	g := newKVGen(seed, probeCaller)
	words := make([]uint64, b)
	replies := make([]uint64, b)
	var instrs, cycles uint64
	n := 0
	for batch := uint64(0); n < probeWords; batch++ {
		for i := range words {
			words[i] = g.next()
		}
		id := batch | 1<<62 // apart from the workload's request ids
		root := rec.begin("probe.batch", id)
		step := func(name string, f func()) {
			t0 := rec.now()
			f()
			rec.add(span{name: name, id: id, parent: root, start: t0, end: rec.now()})
		}
		var st vm.Status
		step("vm.reset", k.m.Reset)
		step("htm.reset", k.m.HTM.Reset)
		step("vm.poke", func() { k.poke(words) })
		step("vm.run", func() { st = k.m.Run(k.specs...) })
		step("vm.peek", func() { k.peek(replies) })
		bad := 0
		step("workloads.verify", func() {
			for i, w := range words {
				if replies[i] != workloads.KVReference(w, cfg.KV.ValueWork) {
					bad++
				}
			}
		})
		rec.finish(root)
		if st != vm.StatusOK || bad > 0 {
			return fmt.Errorf("probe batch %d: status %v, %d wrong replies", batch, st, bad)
		}
		rs := k.m.Stats()
		instrs += rs.DynInstrs
		cycles += rs.Cycles
		n += b
	}
	for _, name := range []string{"vm.reset", "htm.reset", "vm.poke", "vm.run", "vm.peek", "workloads.verify"} {
		out[name+"_us"] = mean(rec.durations(name))
	}
	runUS := 0.0
	for _, d := range rec.durations("vm.run") {
		runUS += d
	}
	out["vm.dyn_instrs_per_req"] = float64(instrs) / float64(n)
	out["vm.sim_cycles_per_req"] = float64(cycles) / float64(n)
	out["vm.instrs_per_s"] = float64(instrs) / runUS * 1e6
	return nil
}
