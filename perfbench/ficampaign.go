package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// fi-campaign: fault.RunCampaign over all six fault models on
// histogram at its smallest input (§5.1), hardened with
// core.DefaultConfig and run on two threads. Each of the fiCallers
// campaigns has one worker, so its runs follow one another: the
// target's Setup hook, called right before every run, stamps the run
// boundaries. A caller resumes its campaign fiChunk injections at a
// time until its time is up.
//
// There is one campaign, not one per core: every injection run builds a
// fresh machine, and with a worker on each of the two cores the
// garbage collector takes its share from a worker, so the rate swung
// by ±12% over a minute, against ±5% with one worker and the collector
// on the other core.
const (
	fiBench   = "histogram"
	fiThreads = 2
	fiCallers = 1
	fiChunk   = 60 // a multiple of the six models keeps strata balanced
)

type fiCaller struct {
	target *fault.Target
	cfg    fault.CampaignConfig
	res    *fault.CampaignResult
	stamps []time.Duration // Setup calls of the current RunCampaign call
	digest string          // checkpoint digest after the first chunk
}

type fiCampaign struct {
	refOut   []uint64
	refStats vm.RunStats
	refRun   time.Duration
	callers  []*fiCaller
	clock    time.Time

	// Campaign totals at the start and end of the last phase, and the
	// per-caller time and runs of that phase.
	before, after fiTotals
	busy          []time.Duration
	runs          []int

	native *fiNative
}

type fiNative struct {
	out    []uint64
	cycles uint64
}

func setupFICampaign(seed int64) (system, map[string]float64, error) {
	spec, err := workloads.ByName(fiBench)
	if err != nil {
		return nil, nil, err
	}
	p := spec.Build(0)
	hcfg := core.DefaultConfig()
	hcfg.Blacklist = p.Blacklist
	t0 := time.Now()
	mod, err := core.Harden(p.Module, hcfg)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	// The campaign's targets compile through the same shared cache, so
	// this is the only compilation.
	cprog := vm.SharedPrograms.Get(mod)
	t2 := time.Now()
	ref := vm.NewFromProgram(cprog, fiThreads, vm.DefaultConfig())
	t3 := time.Now()
	// Hardening keeps the entry point and arguments, so the native
	// program's thread specs run the hardened module too.
	specs := p.SpecsFor(fiThreads)
	if st := ref.Run(specs...); st != vm.StatusOK {
		return nil, nil, fmt.Errorf("hardened reference run: %v (%s)", st, ref.Stats().CrashReason)
	}
	t4 := time.Now()

	f := &fiCampaign{
		refOut:   append([]uint64(nil), ref.Output()...),
		refStats: ref.Stats(),
		refRun:   t4.Sub(t3),
		clock:    time.Now(),
	}
	for c := 0; c < fiCallers; c++ {
		fc := &fiCaller{cfg: fault.CampaignConfig{
			Models:  fault.AllModels(),
			Seed:    seed*1_000_003 + int64(c),
			Workers: 1,
		}}
		fc.target = &fault.Target{
			Name:    fiBench,
			Module:  mod,
			Threads: fiThreads,
			VM:      vm.DefaultConfig(),
			Specs:   specs,
			Setup:   func(*vm.Machine) { fc.stamps = append(fc.stamps, time.Since(f.clock)) },
		}
		f.callers = append(f.callers, fc)
	}
	return f, map[string]float64{
		"core.harden_ms":    ms(t1.Sub(t0)),
		"vm.compile_ms":     ms(t2.Sub(t1)),
		"vm.new_machine_us": us(t3.Sub(t2)),
		"fault.ref_run_ms":  ms(t4.Sub(t3)),
		"vm.instrs_per_s":   float64(f.refStats.DynInstrs) / t4.Sub(t3).Seconds(),
	}, nil
}

// fiTotals sums the campaign results of every caller.
type fiTotals struct {
	runs     int
	outcomes map[fault.Outcome]int
	htm      htm.Stats
}

func (f *fiCampaign) totals() fiTotals {
	t := fiTotals{outcomes: map[fault.Outcome]int{}, htm: htm.Stats{Aborted: map[htm.Cause]uint64{}}}
	for _, c := range f.callers {
		if c.res == nil {
			continue
		}
		for _, mr := range c.res.PerModel {
			t.runs += mr.Total
			for _, o := range fault.Outcomes() {
				t.outcomes[o] += mr.Counts[o]
			}
			t.htm.Merge(mr.HTM)
		}
	}
	return t
}

func (f *fiCampaign) measure(d time.Duration, rec *recorder) (phase, error) {
	f.before = f.totals()
	f.busy = make([]time.Duration, fiCallers)
	f.runs = make([]int, fiCallers)
	done := make([]*opLog, fiCallers)
	for i := range done {
		done[i] = newOpLog(d)
	}
	missing := make([]int, fiCallers)
	errs := make([]error, fiCallers)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	base := t0.Sub(f.clock) // the phase start on the stamps' clock
	for i, c := range f.callers {
		wg.Add(1)
		go func(i int, c *fiCaller) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				prev := 0
				if c.res != nil {
					prev = c.res.NextIndex
				}
				c.cfg.Injections = prev + fiChunk
				c.cfg.Resume = c.res
				c.stamps = c.stamps[:0]
				root := rec.begin("fault.campaign", uint64(i)<<48|uint64(prev))
				start := time.Since(f.clock)
				res, err := fault.RunCampaign(c.target, c.cfg)
				end := time.Since(f.clock)
				rec.finish(root)
				if err != nil {
					errs[i] = err
					return
				}
				c.res = res
				if c.digest == "" {
					ck, err := res.Checkpoint()
					if err != nil {
						errs[i] = err
						return
					}
					sum := sha256.Sum256(ck)
					c.digest = hex.EncodeToString(sum[:8])
				}
				n := res.NextIndex - prev
				missing[i] += fiChunk - n
				f.runs[i] += n
				f.busy[i] += end - start
				// stamps[0] opens the reference run, stamps[k] injection
				// run k; a run ends where the next one is set up, the last
				// where the call returns.
				bounds := append(c.stamps[1:], end)
				for k := 0; k+1 < len(bounds); k++ {
					done[i].add(bounds[k+1]-base, bounds[k+1]-bounds[k])
					rec.add(span{name: "fault.run", id: uint64(i)<<48 | uint64(prev+k),
						parent: root, start: bounds[k], end: bounds[k+1]})
				}
			}
		}(i, c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(t0), done: done[0]}
	f.after = f.totals()
	for i := range f.callers {
		if errs[i] != nil {
			return ph, fmt.Errorf("campaign %d: %w", i, errs[i])
		}
		ph.ops += f.runs[i] + missing[i]
		ph.failed += missing[i]
		if i > 0 {
			ph.done.merge(done[i])
		}
	}
	ph.vmRuns = uint64(ph.ops - ph.failed)
	return ph, nil
}

// nativeRef runs the unhardened program once: the oracle for the
// hardened output and the base of sim_overhead.
func (f *fiCampaign) nativeRef() (*fiNative, error) {
	if f.native != nil {
		return f.native, nil
	}
	spec, err := workloads.ByName(fiBench)
	if err != nil {
		return nil, err
	}
	p := spec.Build(0)
	mod, err := core.Harden(p.Module, core.Config{Mode: core.ModeNative})
	if err != nil {
		return nil, err
	}
	m := vm.NewFromProgram(vm.Compile(mod), fiThreads, vm.DefaultConfig())
	if st := m.Run(p.SpecsFor(fiThreads)...); st != vm.StatusOK {
		return nil, fmt.Errorf("native reference run: %v", st)
	}
	f.native = &fiNative{out: append([]uint64(nil), m.Output()...), cycles: m.Stats().Cycles}
	return f.native, nil
}

func (f *fiCampaign) simOverhead() (float64, error) {
	n, err := f.nativeRef()
	if err != nil {
		return 0, err
	}
	return float64(f.refStats.Cycles) / float64(n.cycles), nil
}

func (f *fiCampaign) layers(tr phase, rec *recorder) (map[string]float64, error) {
	b, a := f.before, f.after
	runs := float64(a.runs - b.runs)
	share := func(o fault.Outcome) float64 {
		return float64(a.outcomes[o]-b.outcomes[o]) / runs
	}
	var busy time.Duration
	for _, d := range f.busy {
		busy += d
	}
	started := a.htm.Started - b.htm.Started
	var aborted uint64
	for cause, n := range a.htm.Aborted {
		aborted += n - b.htm.Aborted[cause]
	}
	tx := a.htm.TxCycles - b.htm.TxCycles
	wasted := a.htm.WastedCycles - b.htm.WastedCycles
	out := map[string]float64{
		"fault.run_cost_refs":    busy.Seconds() / runs / f.refRun.Seconds(),
		"fault.sdc_share":        share(fault.OutcomeSDC),
		"fault.hang_share":       share(fault.OutcomeHang),
		"fault.crash_share":      share(fault.OutcomeOSDetected),
		"vm.dyn_instrs_per_req":  float64(f.refStats.DynInstrs),
		"vm.sim_cycles_per_req":  float64(f.refStats.Cycles),
		"htm.abort_rate":         float64(aborted) / float64(max(started, 1)),
		"htm.wasted_cycle_share": float64(wasted) / float64(max(tx+wasted, 1)),
	}
	return out, nil
}

// report checks the hardened reference output against the native one
// and records the campaign's outcome counts and checkpoint digests
// (equal for equal seeds and code).
func (f *fiCampaign) report(r map[string]any) int {
	failed := 0
	n, err := f.nativeRef()
	if err != nil || !slices.Equal(n.out, f.refOut) {
		r["reference_output_check"] = fmt.Sprintf("hardened output differs from native (%v)", err)
		failed++
	} else {
		r["reference_output_check"] = "hardened output equals native"
	}
	t := f.totals()
	outcomes := map[string]int{}
	for _, o := range fault.Outcomes() {
		outcomes[o.String()] = t.outcomes[o]
	}
	var digests []string
	for _, c := range f.callers {
		digests = append(digests, c.digest)
	}
	r["injection_runs"] = t.runs
	r["outcomes"] = outcomes
	r["sdc_share"] = float64(t.outcomes[fault.OutcomeSDC]) / float64(max(t.runs, 1))
	r["first_chunk_checkpoint_sha256"] = digests
	r["chunk_injections"] = fiChunk
	return failed
}

func (f *fiCampaign) close() {}
