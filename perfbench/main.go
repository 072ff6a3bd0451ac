// Command perfbench is the repository's benchmark: a closed-loop,
// single-client program that runs one workload of analytical cache-model
// operations, checks every op's miss counts against the trace simulator and
// prints the workload's metrics as one JSON object on the last line of its
// standard output.
//
//	perfbench --workload cold-mini --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// every op twice, once split into traced layer calls, prints the per-layer
// metrics and writes the spans under .bench_build/perfbench/traces. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"haystack/internal/core"
	"haystack/internal/presburger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceDir is where the traced mode writes its spans, relative to the
// directory the benchmark runs in; run.sh keeps all its files there too.
const traceDir = ".bench_build/perfbench/traces"

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

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-mini, warm-setassoc or param-eval")
	seed := fs.Int64("seed", 1, "seed fixing the run's op list")
	seconds := fs.Int("seconds", 20, "measured seconds on the reference host; fixes the number of rounds")
	traced := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	gen := fs.String("gen-expected", "", "simulate every param-eval size, write the results to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *gen != "" {
		if err := generateExpected(*gen); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (cold-mini, warm-setassoc, param-eval), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1, traceDir, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// rounds returns the number of rounds of a run: enough to fill the given
// seconds on the reference host, at least two. The traced mode runs every
// op twice and so half the rounds.
func rounds(w *workload, seconds int, traced bool) int {
	r := max(2, int(math.Ceil(float64(seconds)/w.roundSeconds)))
	if traced {
		r = max(1, r/2)
	}
	return r
}

// schedule returns the seed's op set and the op order of a run of n rounds.
func schedule(w *workload, seed int64, n int) (set, order []opSpec) {
	rng := rand.New(rand.NewSource(seed))
	set = w.opSet(rng)
	for r := 0; r < n; r++ {
		for _, i := range rng.Perm(len(set)) {
			order = append(order, set[i])
		}
	}
	return set, order
}

// env is the run environment printed before every result.
type env struct {
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Traced         bool      `json:"traced"`
	Workers        int       `json:"workers"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	NProc          int       `json:"nproc"`
	GoVersion      string    `json:"go"`
	Rounds         int       `json:"rounds"`
	Ops            int       `json:"ops"`
	TailPercentile float64   `json:"tail_percentile"`
	CalibMS        float64   `json:"host.calib_ms"`
	SetupS         []float64 `json:"setup_s_all"`
}

func runWorkload(w *workload, seed int64, seconds int, traced bool, spanDir string, stdout, stderr io.Writer) (*result, error) {
	e := env{Workload: w.name, Seed: seed, Traced: traced, Workers: w.workers,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Rounds: rounds(w, seconds, traced)}
	// The probe runs with the default GOMAXPROCS on every workload, so it
	// sees the same host whichever workload follows.
	e.CalibMS = calibrate()
	// One P per worker: the workload's CPU budget is its worker count. With
	// a second P, a single-worker run's GC and stop-the-world phases depend
	// on a second vCPU that the host may preempt, which made single-worker
	// timings drift by up to 2x between runs (see README.md).
	runtime.GOMAXPROCS(w.workers)
	e.GOMAXPROCS = w.workers
	set, order := schedule(w, seed, e.Rounds)
	refs, err := w.references(set)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Setup runs three times: before the ops, half way through them and
	// after them; setup_s is the median. Three setups in a row, all in the
	// first seconds of the process, varied together by up to 50% between
	// runs whose ops ran at the same speed.
	var runOp runner
	setup := func() error {
		runOp = nil
		runtime.GC()
		start := time.Now()
		var err error
		if runOp, err = w.setup(tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		e.SetupS = append(e.SetupS, time.Since(start).Seconds())
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	modelMiB := liveHeapMiB()

	res := &result{Metrics: map[string]metric{}}
	check := func(i int, op opSpec, r *core.Result, err error) {
		res.Attempted++
		if err == nil {
			err = checkResult(r, refs[op.key()])
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "op %d (%s): %v\n", i, op.key(), err)
		}
	}

	// Plain ops: wall and CPU time of every op.
	var secs, cpus []float64
	plain := func(i int, op opSpec) {
		c0, t0 := cpuSeconds(), time.Now()
		r, err := runOp(op, nil)
		secs = append(secs, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		check(i, op, r, err)
	}
	// Traced ops: spans, the op's result and its runtime counters.
	var recs []tracedOp
	var tracedS float64
	traceOp := func(i int, op opSpec) {
		tr.op = i
		rc0, ar0 := readRuntimeCounters(), presburger.ArenaCountersSnapshot()
		t0 := time.Now()
		sp := tr.begin("op")
		r, err := runOp(op, tr)
		tr.end(sp)
		tracedS += time.Since(t0).Seconds()
		recs = append(recs, tracedOp{res: r, runtime: readRuntimeCounters().sub(rc0),
			arena: presburger.ArenaCountersSnapshot().Sub(ar0)})
		sp = tr.begin("oracle.check")
		check(i, op, r, err)
		tr.end(sp)
		tr.op = setupOp
	}

	var heapSamples []float64
	heap := startHeapSampler()
	for i, op := range order {
		if i == len(order)/2 {
			heapSamples = append(heapSamples, heap.stop()...)
			if err := setup(); err != nil {
				return nil, err
			}
			heap = startHeapSampler()
		}
		switch {
		case !traced:
			plain(i, op)
		case i%2 == 0: // alternate which copy of a traced op runs first
			plain(i, op)
			traceOp(i, op)
		default:
			traceOp(i, op)
			plain(i, op)
		}
	}
	heapSamples = append(heapSamples, heap.stop()...)
	if err := setup(); err != nil {
		return nil, err
	}

	e.Ops = len(order)
	e.TailPercentile = tailPercentile(len(secs))
	if !traced {
		ms := func(v float64) metric { return metric{v * 1000, "ms"} }
		res.Metrics["ops_per_s"] = metric{float64(len(secs)) / sum(secs), "1/s"}
		res.Metrics["op_ms.p50"] = ms(median(secs))
		res.Metrics["op_ms.tail"] = ms(percentile(secs, e.TailPercentile))
		res.Metrics["ok_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
		res.Metrics["setup_s"] = metric{median(e.SetupS), "s"}
		res.Metrics["cpu_s_per_op"] = metric{sum(cpus) / float64(len(cpus)), "s"}
		// The 90th percentile: single-cycle spikes of the live heap (up to
		// 8 MiB against a 4.7 MiB body in param-eval) appear in some runs of
		// the same op set and not in others, so the maximum and even the
		// 99th percentile do not repeat.
		res.Metrics["heap_peak_mib"] = metric{percentile(heapSamples, 90) / (1 << 20), "MiB"}
		res.Metrics["model_mib"] = metric{modelMiB, "MiB"}
	} else {
		res.Metrics = layerMetrics(tr, recs, e.Rounds, e.CalibMS, sum(secs)/tracedS)
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s (%d spans)\n", path, len(tr.spans))
	}
	res.Correct = res.Failed == 0
	envLine, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "env: %s\n", envLine)
	return res, nil
}

// tracedOp is what the traced mode records about one traced op execution.
type tracedOp struct {
	res     *core.Result
	runtime runtimeCounters
	arena   presburger.ArenaCounters
}
