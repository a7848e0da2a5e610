// Command perfbench is the repository's benchmark. One invocation runs
// one workload against the system, built from this checkout's source,
// checks every output against an oracle, and prints two JSON lines: a
// report with provenance and counts, then the result. Run it from the
// checkout root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload kv-wire --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 the run is split into a traced half between two untraced
// quarters, and the result holds the per-layer metrics, measured from
// spans the benchmark records around its calls into each layer.
// BENCHMARK.json at the repository root lists the workloads and
// metrics, and README.md here defines them.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is
// the median, so a few slow repetitions do not move it.
const setupReps = 31

// warmup runs before any measured phase, with outputs still checked,
// so lazy set-up and caches settle before timing.
const warmup = time.Second

// phase is what one measured stretch of a workload observed.
type phase struct {
	elapsed time.Duration
	ops     int    // operations completed and checked
	failed  int    // operations that erred or failed their check
	done    *opLog // verified operations: when each completed and its latency
	vmRuns  uint64 // machine runs the system executed
	// win holds the phase's verified operations per second and their
	// latency percentiles (µs) in each window; rps, p50 and p99 are the
	// medians over the windows.
	win           windowStats
	rps, p50, p99 float64
	cpu           time.Duration // process CPU time (user+system) over the phase
}

// system is one workload's set-up system under test.
type system interface {
	// measure drives the workload for d and checks every output; a
	// non-nil rec records spans around the calls into each layer.
	measure(d time.Duration, rec *recorder) (phase, error)
	// simOverhead is the modelled slowdown of the hardened program
	// over the native one on this workload's inputs.
	simOverhead() (float64, error)
	// layers computes the per-layer metrics of the traced phase.
	layers(traced phase, rec *recorder) (map[string]float64, error)
	// report adds workload facts (oracle results, digests, counts) to
	// the report line and returns the failures its final audit found.
	report(r map[string]any) int
	close()
}

// setupFunc builds a workload's system from the seed and returns the
// set-up layer timings it measured on the way (ms).
type setupFunc func(seed int64) (system, map[string]float64, error)

var workloadSetups = map[string]setupFunc{
	"kv-wire":     setupKVWire,
	"kv-cluster":  setupKVCluster,
	"fi-campaign": setupFICampaign,
}

// Units of every metric the benchmark prints, end-to-end and per layer
// (BENCHMARK.json declares the same names and units).
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"throughput_rps": "1/s",
	"latency_p50_us": "us",
	"runs_per_s":     "1/s",
	"sim_overhead":   "x",
}

var perLayerUnits = map[string]string{
	"core.harden_ms":             "ms",
	"vm.compile_ms":              "ms",
	"serve.new_server_ms":        "ms",
	"cluster.new_ms":             "ms",
	"wire.overhead_us":           "us",
	"serve.batch_mean":           "req/run",
	"serve.queue_wait_us":        "us",
	"serve.exec_us":              "us",
	"serve.retry_share":          "ratio",
	"serve.corrected_faults":     "count",
	"vm.reset_us":                "us",
	"htm.reset_us":               "us",
	"vm.poke_us":                 "us",
	"vm.run_us":                  "us",
	"vm.peek_us":                 "us",
	"workloads.verify_us":        "us",
	"vm.dyn_instrs_per_req":      "count",
	"vm.sim_cycles_per_req":      "cycles",
	"vm.new_machine_us":          "us",
	"vm.instrs_per_s":            "1/s",
	"cluster.self_us":            "us",
	"cluster.node_call_p50_us":   "us",
	"cluster.node_call_p99_us":   "us",
	"cluster.calls_per_req":      "count",
	"cluster.quorum_wait_p99_us": "us",
	"cluster.masked_replies":     "count",
	"cluster.retries":            "count",
	"fault.ref_run_ms":           "ms",
	"fault.run_cost_refs":        "ratio",
	"fault.sdc_share":            "ratio",
	"fault.hang_share":           "ratio",
	"fault.crash_share":          "ratio",
	"htm.abort_rate":             "ratio",
	"htm.wasted_cycle_share":     "ratio",
	"bench.trace_overhead_share": "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "kv-wire, kv-cluster or fi-campaign")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: trace the middle half of the run and print per-layer metrics")
	flag.Parse()
	setup, ok := workloadSetups[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload kv-wire|kv-cluster|fi-campaign --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(*workload, setup, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, setup setupFunc, seed int64, seconds float64, traced bool) error {
	rep := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}

	// Set up several times; keep the last system.
	var sys system
	var setupS []float64
	breakdown := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
		}
		// Each set-up starts from a collected heap, as in a fresh
		// process, not from the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		s, bd, err := setup(seed)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		for k, v := range bd {
			breakdown[k] = append(breakdown[k], v)
		}
		sys = s
	}
	defer sys.close()
	q1, q3 := quartiles(append([]float64(nil), setupS...))
	rep["setup_s_samples"] = setupS
	rep["setup_s_quartiles"] = []float64{q1, q3}

	attempted, failed := 0, 0
	measure := func(d time.Duration, rec *recorder) (phase, error) {
		c0 := cpuTime()
		ph, err := sys.measure(d, rec)
		ph.cpu = cpuTime() - c0
		if ph.done == nil {
			ph.done = newOpLog(d)
		}
		ph.win = ph.done.stats()
		med := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }
		ph.rps, ph.p50, ph.p99 = med(ph.win.rate), med(ph.win.p50), med(ph.win.p99)
		attempted += ph.ops
		failed += ph.failed
		return ph, err
	}
	if _, err := measure(warmup, nil); err != nil {
		return fmt.Errorf("%s: warm-up: %w", name, err)
	}

	dur := time.Duration(seconds * float64(time.Second))
	values := map[string]float64{}
	var units map[string]string
	if !traced {
		ph, err := measure(dur, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sim, err := sys.simOverhead()
		if err != nil {
			return fmt.Errorf("%s: sim overhead: %w", name, err)
		}
		units = endToEndUnits
		values["setup_s"] = median(append([]float64(nil), setupS...))
		values["throughput_rps"] = ph.rps
		values["latency_p50_us"] = ph.p50
		// Not an end-to-end metric: on kv-wire it moves several-fold
		// when the hypervisor takes CPU (README.md, "Costs and noise").
		rep["latency_p99_us"] = ph.p99
		values["runs_per_s"] = ph.rps * float64(ph.vmRuns) / float64(max(ph.ops-ph.failed, 1))
		values["sim_overhead"] = sim
		whole := ph.done.whole()
		rep["latency_samples"] = whole.n
		rep["window_s"] = dur.Seconds() / windows
		rep["window_rps"] = ph.win.rate
		rep["window_p50_us"] = ph.win.p50
		rep["window_p99_us"] = ph.win.p99
		rep["whole_run_rps"] = float64(ph.ops-ph.failed) / ph.elapsed.Seconds()
		rep["whole_run_p50_us"] = whole.quantile(0.50)
		rep["whole_run_p99_us"] = whole.quantile(0.99)
		rep["measured_s"] = ph.elapsed.Seconds()
		rep["measured_cpu_s"] = ph.cpu.Seconds()
	} else {
		// Untraced quarters on both sides of the traced half, so a
		// steady drift over the run cancels out of the overhead.
		a1, err := measure(dur/4, nil)
		if err != nil {
			return fmt.Errorf("%s: first untraced quarter: %w", name, err)
		}
		rec := newRecorder()
		tr, err := measure(dur/2, rec)
		if err != nil {
			return fmt.Errorf("%s: traced half: %w", name, err)
		}
		units = perLayerUnits
		for k := range perLayerUnits {
			values[k] = 0 // a layer the workload bypasses reads 0
		}
		for k, vs := range breakdown {
			values[k] = median(vs)
		}
		lv, err := sys.layers(tr, rec)
		if err != nil {
			return fmt.Errorf("%s: layers: %w", name, err)
		}
		for k, v := range lv {
			values[k] = v
		}
		a2, err := measure(dur/4, nil)
		if err != nil {
			return fmt.Errorf("%s: second untraced quarter: %w", name, err)
		}
		plainRPS := (a1.rps + a2.rps) / 2
		values["bench.trace_overhead_share"] = 1 - tr.rps/plainRPS
		rep["spans"] = len(rec.all())
		rep["latency_samples"] = tr.done.count()
		rep["untraced_rps"] = plainRPS
		rep["traced_rps"] = tr.rps
	}
	failed += sys.report(rep)

	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for k, v := range values {
		u, ok := units[k]
		if !ok {
			return fmt.Errorf("%s: metric %s has no declared unit", name, k)
		}
		res.Metrics[k] = metric{Value: v, Unit: u}
	}
	rep["attempted"] = attempted
	rep["succeeded"] = attempted - failed
	rep["failed"] = failed
	rep["failed_share"] = float64(failed) / float64(max(attempted, 1))

	out, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	out, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if attempted == 0 {
		return fmt.Errorf("%s: no operation completed", name)
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed their check", name, failed, attempted)
	}
	return nil
}

// commit names the checked-out commit when the working directory is a
// git work tree, and "unknown" otherwise (the source digest still
// identifies the code).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under the
// working directory (the checkout root), in the walk's lexical order,
// skipping hidden and build directories, so two results can be
// matched to the same code. An unreadable tree gives "unknown".
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the CPU time, user plus system, this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
