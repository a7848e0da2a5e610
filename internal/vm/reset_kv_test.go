package vm_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// kvFixture is the hardened KV serving program, compiled once, with the
// addresses the host pokes requests into.
type kvFixture struct {
	prog  *vm.Program
	specs []vm.ThreadSpec
}

func newKVFixture(t *testing.T, mode core.Mode) kvFixture {
	t.Helper()
	p := workloads.KVServe(workloads.KVServeConfig{MaxBatch: 8})
	hcfg := core.DefaultConfig()
	hcfg.Mode = mode
	hcfg.TxThreshold = p.TxThreshold
	hcfg.Blacklist = p.Blacklist
	mod, err := core.Harden(p.Module, hcfg)
	if err != nil {
		t.Fatalf("%v: harden: %v", mode, err)
	}
	hp := *p
	hp.Module = mod
	return kvFixture{prog: vm.Compile(mod), specs: hp.SpecsFor(1)}
}

func (f kvFixture) machine(cfg vm.Config) *vm.Machine {
	return vm.NewFromProgram(f.prog, 1, cfg)
}

// kvBatch is a deterministic mix of puts and gets.
func kvBatch(round int) []uint64 {
	reqs := make([]uint64, 8)
	for i := range reqs {
		reqs[i] = workloads.KVRequestWord(i%2 == 0, uint64(round*37+i*11)%1024, uint64(round+i))
	}
	return reqs
}

// run pokes a batch into mach and runs it.
func (f kvFixture) run(mach *vm.Machine, reqs []uint64) vm.Status {
	base := mach.Mod.Global(workloads.KVReqsGlobal).Addr
	for i, r := range reqs {
		mach.Poke(base+uint64(i)*8, r)
	}
	mach.Poke(mach.Mod.Global(workloads.KVNReqGlobal).Addr, uint64(len(reqs)))
	return mach.Run(f.specs...)
}

// TestResetAllocFree: resetting a warm KV machine allocates nothing,
// under HAFT and TMR hardening, whatever the previous run dirtied.
func TestResetAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range []core.Mode{core.ModeHAFT, core.ModeTMR} {
		f := newKVFixture(t, mode)
		mach := f.machine(vm.DefaultConfig())
		var before, after runtime.MemStats
		var allocs uint64
		for round := 0; round < 20; round++ {
			if st := f.run(mach, kvBatch(round)); st != vm.StatusOK {
				t.Fatalf("%v round %d: status %v", mode, round, st)
			}
			runtime.ReadMemStats(&before)
			mach.Reset()
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
		}
		if allocs != 0 {
			t.Fatalf("%v: Reset after a run allocated %d times over 20 runs, want 0", mode, allocs)
		}
		if n := testing.AllocsPerRun(100, mach.Reset); n != 0 {
			t.Fatalf("%v: Reset allocates %.1f times per call, want 0", mode, n)
		}
	}
}

// machineState is everything of a machine a reset must restore.
type machineState struct {
	mem      []uint64
	htm      htm.Stats
	readSet  int
	writeSet int
	status   vm.Status
	out      []uint64
	stats    vm.RunStats
}

func snapshot(mach *vm.Machine) machineState {
	return machineState{
		mem:      append([]uint64(nil), mach.MemImage()...),
		htm:      mach.HTM.Stats,
		readSet:  mach.HTM.ReadSetSize(0),
		writeSet: mach.HTM.WriteSetSize(0),
		status:   mach.Status(),
		out:      append([]uint64(nil), mach.Output()...),
		stats:    mach.Stats(),
	}
}

// TestResetAfterFaultsMatchesFresh: after a run that a memory-word
// fault, an address-line fault or an ILR-detected fault disturbed, a
// reset machine is indistinguishable from a fresh one — memory image,
// HTM statistics and transactional sets — and its next run is too.
func TestResetAfterFaultsMatchesFresh(t *testing.T) {
	f := newKVFixture(t, core.ModeHAFT)
	cfg := vm.DefaultConfig() // keep the spontaneous-abort RNG live
	failStop := cfg
	failStop.DisableRecovery = true // ILR detection ends the run mid-transaction

	// The fault populations of a clean run bound the plan targets.
	ref := f.machine(cfg)
	if st := f.run(ref, kvBatch(0)); st != vm.StatusOK {
		t.Fatalf("reference run: %v", st)
	}
	pop := ref.Stats()

	clean := f.machine(cfg)
	f.run(clean, kvBatch(0))
	cleanMem := clean.MemImage()
	// A memory fault case proves something about Reset only if the
	// faulty run left memory unlike a clean run's.
	corruptsMemory := func(m *vm.Machine) bool {
		return m.Status() == vm.StatusOK && !reflect.DeepEqual(m.MemImage(), cleanMem)
	}

	cases := []struct {
		name    string
		cfg     vm.Config
		model   vm.FaultModel
		mask    uint64
		targets uint64
		// shows reports whether the faulty run shows the fault.
		shows func(m *vm.Machine) bool
	}{
		{"mem", cfg, vm.FaultMemory, 1 << 40, pop.MemAccesses, corruptsMemory},
		{"addr", cfg, vm.FaultAddress, 1 << 9, pop.MemAccesses, corruptsMemory},
		{"ilr-recovered", cfg, vm.FaultRegister, 1 << 3, pop.RegWrites, func(m *vm.Machine) bool {
			return m.Status() == vm.StatusOK && m.Stats().ExplicitAborts > 0
		}},
		{"ilr-fail-stop", failStop, vm.FaultRegister, 1 << 3, pop.RegWrites, func(m *vm.Machine) bool {
			return m.Status() == vm.StatusILRDetected && m.HTM.InTx(0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reused *vm.Machine
			for i := uint64(0); i < tc.targets && reused == nil; i++ {
				m := f.machine(tc.cfg)
				plan := &vm.FaultPlan{Model: tc.model, TargetIndex: i, Mask: tc.mask}
				m.SetFaultPlan(plan)
				f.run(m, kvBatch(0))
				if plan.Injected && tc.shows(m) {
					reused = m
				}
			}
			if reused == nil {
				t.Fatal("no fault target produced a run that shows the fault")
			}

			fresh := f.machine(tc.cfg)
			reused.Reset()
			if got, want := snapshot(reused), snapshot(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("reset machine differs from a fresh one:\n got  %+v\n want %+v",
					diffSummary(got), diffSummary(want))
			}
			for round := 1; round <= 3; round++ {
				f.run(reused, kvBatch(round))
				f.run(fresh, kvBatch(round))
				if got, want := snapshot(reused), snapshot(fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d after reset diverges:\n got  %+v\n want %+v",
						round, diffSummary(got), diffSummary(want))
				}
				reused.Reset()
				fresh = f.machine(tc.cfg)
			}
		})
	}
}

// diffSummary replaces the memory image by the indices of its nonzero
// words so failure messages stay readable.
func diffSummary(s machineState) machineState {
	var nonzero []uint64
	for i, w := range s.mem {
		if w != 0 {
			nonzero = append(nonzero, uint64(i))
		}
	}
	s.mem = nonzero
	return s
}
