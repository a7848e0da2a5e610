package vm

import (
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

// resetProg exercises most of the machine state Reset must restore:
// globals with initializers, transactions (snapshots, HTM sets, the
// spontaneous-abort RNG), locks, barriers, ILR-triggered recovery and
// externalized output, across two threads.
const resetProg = `
global g bytes=64
global lk bytes=8
global bar bytes=8

func main(0) {
entry:
  v0 = call @thread.id
  v1 = call @thread.count
  call @tx.begin
  jmp loop
loop:
  v2 = phi #0 [entry], v8 [loop]
  call @tx.cond_split #40
  call @tx.counter_inc #7
  v3 = mul v2, #8
  v4 = add v3, #4096
  call @lock.acquire #4160
  v5 = load v4
  v6 = add v5, v0
  v7 = add v6, #1
  store v4, v7
  call @lock.release #4160
  v8 = add v2, #1
  v9 = cmp lt v8, #8
  br v9, loop, done
done:
  call @tx.end
  call @barrier.wait #4168, v1
  v10 = cmp eq v0, #0
  br v10, emit, fin
emit:
  v11 = load #4096
  out v11
  out v10
  jmp fin
fin:
  ret
}
`

func runReset(t *testing.T, mach *Machine) (Status, []uint64, RunStats, uint64, uint64) {
	t.Helper()
	mach.Run(ThreadSpec{Func: "main"}, ThreadSpec{Func: "main"})
	out := append([]uint64(nil), mach.Output()...)
	return mach.Status(), out, mach.Stats(), mach.HTM.Stats.Started, mach.HTM.Stats.Committed
}

// TestResetDeterminism proves the serve-pool contract: a machine that
// has been Reset produces byte-identical output, statistics, and HTM
// behavior to a freshly constructed one, over repeated reuse.
func TestResetDeterminism(t *testing.T) {
	m, err := ir.Parse(resetProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Default config keeps the spontaneous-abort RNG live, so the test
	// also covers rewinding the HTM RNG.
	cfg := DefaultConfig()

	fresh := New(m.Clone(), 2, cfg)
	wantStatus, wantOut, wantStats, wantStarted, wantCommitted := runReset(t, fresh)
	if wantStatus != StatusOK {
		t.Fatalf("reference run failed: %v (%s)", wantStatus, wantStats.CrashReason)
	}
	if len(wantOut) == 0 {
		t.Fatalf("reference run produced no output")
	}

	reused := New(m.Clone(), 2, cfg)
	for round := 0; round < 4; round++ {
		if round > 0 {
			reused.Reset()
		}
		status, out, stats, started, committed := runReset(t, reused)
		if status != wantStatus {
			t.Fatalf("round %d: status %v, want %v", round, status, wantStatus)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("round %d: output %v, want %v", round, out, wantOut)
		}
		if stats != wantStats {
			t.Fatalf("round %d: stats %+v, want %+v", round, stats, wantStats)
		}
		if started != wantStarted || committed != wantCommitted {
			t.Fatalf("round %d: HTM started/committed %d/%d, want %d/%d",
				round, started, committed, wantStarted, wantCommitted)
		}
	}
}

// TestCompiledResetDeterminism extends the warm-pool contract to the
// fast engine: a Reset compiled machine — with a ring and profiler
// still attached — reruns bit-identically to a fresh one built from
// the same shared Program, and both agree with the step interpreter.
func TestCompiledResetDeterminism(t *testing.T) {
	m, err := ir.Parse(resetProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog := Compile(m)
	cfg := DefaultConfig() // keep the HTM RNG live

	fresh := NewFromProgram(prog, 2, cfg)
	wantStatus, wantOut, wantStats, wantStarted, wantCommitted := runReset(t, fresh)
	if wantStatus != StatusOK {
		t.Fatalf("reference run failed: %v (%s)", wantStatus, wantStats.CrashReason)
	}

	// The interpreter agrees on the same module.
	interp := New(m, 2, cfg)
	iStatus, iOut, iStats, _, _ := runReset(t, interp)
	if iStatus != wantStatus || !reflect.DeepEqual(iOut, wantOut) || iStats != wantStats {
		t.Fatalf("engines disagree: interp %v %v %+v vs compiled %v %v %+v",
			iStatus, iOut, iStats, wantStatus, wantOut, wantStats)
	}

	reused := NewFromProgram(prog, 2, cfg)
	ring := obs.NewRing(1 << 12)
	reused.SetObsRing(ring)
	reused.SetProfiler(obs.NewProfiler())
	for round := 0; round < 4; round++ {
		if round > 0 {
			reused.Reset()
			if !reused.Compiled() {
				t.Fatalf("round %d: Reset dropped the compiled program", round)
			}
		}
		status, out, stats, started, committed := runReset(t, reused)
		if status != wantStatus || !reflect.DeepEqual(out, wantOut) || stats != wantStats ||
			started != wantStarted || committed != wantCommitted {
			t.Fatalf("round %d diverged: %v %v %+v (htm %d/%d), want %v %v %+v (htm %d/%d)",
				round, status, out, stats, started, committed,
				wantStatus, wantOut, wantStats, wantStarted, wantCommitted)
		}
	}
}

// TestResetClearsFaultPlan: an armed injection must not survive Reset
// into the next request's run (a quarantined instance would otherwise
// replay its fault).
func TestResetClearsFaultPlan(t *testing.T) {
	m, err := ir.Parse(resetProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mach := New(m.Clone(), 2, quietCfg())
	mach.SetFaultPlan(&FaultPlan{TargetIndex: 3, Mask: 1 << 17})
	mach.Run(ThreadSpec{Func: "main"}, ThreadSpec{Func: "main"})

	mach.Reset()
	status, out, _, _, _ := runReset(t, mach)
	if status != StatusOK {
		t.Fatalf("post-reset run not clean: %v", status)
	}
	ref := New(m.Clone(), 2, quietCfg())
	_, wantOut, _, _, _ := runReset(t, ref)
	if !reflect.DeepEqual(out, wantOut) {
		t.Fatalf("post-reset output %v, want fault-free %v", out, wantOut)
	}
}

// TestResetAfterCrashRecovers: Reset must fully revive a machine whose
// previous run crashed mid-transaction (the rebuild path of the serve
// pool's quarantine policy relies on this).
func TestResetAfterCrashRecovers(t *testing.T) {
	crash := `
func main(0) {
entry:
  call @tx.begin
  v0 = load #0
  call @tx.end
  ret
}
`
	m, err := ir.Parse(crash)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mach := New(m, 1, quietCfg())
	if mach.Run(ThreadSpec{Func: "main"}) != StatusCrashed {
		t.Fatalf("expected crash, got %v", mach.Status())
	}
	mach.Reset()
	if mach.Status() != StatusOK {
		t.Fatalf("status not cleared by Reset: %v", mach.Status())
	}
	if mach.Stats() != (RunStats{}) {
		t.Fatalf("stats not cleared by Reset: %+v", mach.Stats())
	}
}

// TestResetRestoresInitializedGlobals: Reset clears only the written
// word range, so it must re-copy exactly the initializer words inside
// that range — including a range that starts or ends mid-global.
func TestResetRestoresInitializedGlobals(t *testing.T) {
	m, err := ir.Parse(resetProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m.Global("g").Init = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	m.Global("lk").Init = []uint64{9}
	fresh := New(m.Clone(), 2, quietCfg())
	mach := New(m.Clone(), 2, quietCfg())
	g, lk := mach.Mod.Global("g").Addr, mach.Mod.Global("lk").Addr
	for _, pokes := range [][]uint64{
		{g + 24},                // one word inside g
		{g + 40, lk},            // from mid-g into the next global
		{lk, mach.memBytes - 8}, // from a global to the last stack word
		{8, g + 8},              // from the first word to mid-g
	} {
		for _, a := range pokes {
			mach.Poke(a, 0xdead)
		}
		mach.Reset()
		if !reflect.DeepEqual(mach.mem, fresh.mem) {
			t.Fatalf("pokes at %#x: memory after Reset differs from a fresh machine's", pokes)
		}
	}
	// A run that writes the globals and the stacks resets as well.
	runReset(t, mach)
	mach.Reset()
	if !reflect.DeepEqual(mach.mem, fresh.mem) {
		t.Fatal("memory after a run and Reset differs from a fresh machine's")
	}
}

// TestResetUndoesMemoryFaultOnLoad: a memory-cell fault on a load
// flips a word that the run never writes, so only the flip itself
// marks that word for Reset to restore.
func TestResetUndoesMemoryFaultOnLoad(t *testing.T) {
	m, err := ir.Parse(`
global ro bytes=64

func main(0) {
entry:
  v0 = load #4104
  out v0
  ret
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m.Global("ro").Init = []uint64{10, 20, 30}
	fresh := New(m.Clone(), 1, quietCfg())
	mach := New(m.Clone(), 1, quietCfg())
	if addr := mach.Mod.Global("ro").Addr; addr != 4096 {
		t.Fatalf("ro laid out at %#x, the program loads from 4096+8", addr)
	}
	plan := &FaultPlan{Model: FaultMemory, TargetIndex: 0, Mask: 1 << 5}
	mach.SetFaultPlan(plan)
	mach.Run(ThreadSpec{Func: "main"})
	if !plan.Injected || reflect.DeepEqual(mach.mem, fresh.mem) {
		t.Fatal("the memory fault did not corrupt the loaded word")
	}
	mach.Reset()
	if !reflect.DeepEqual(mach.mem, fresh.mem) {
		t.Fatal("memory after Reset still holds the fault")
	}
	mach.Run(ThreadSpec{Func: "main"})
	if out := mach.Output(); !reflect.DeepEqual(out, []uint64{20}) {
		t.Fatalf("post-reset output %v, want [20]", out)
	}
}
