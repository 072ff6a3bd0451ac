package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"haystack/internal/core"
	"haystack/internal/polybench"
	"haystack/internal/scop"
	"haystack/internal/scopcheck"
)

// opSpec is one benchmark operation: the kernel it runs on, the per-level
// associativity of the queried hierarchy (warm-setassoc) and the problem
// size bindings (param-eval).
type opSpec struct {
	Kernel string
	Ways   []int
	Size   map[string]int64
}

// key names the op for the oracle and the op log; equal keys mean equal
// inputs.
func (o opSpec) key() string {
	var b strings.Builder
	b.WriteString(o.Kernel)
	if len(o.Ways) > 0 {
		fmt.Fprintf(&b, "/ways=%d", o.Ways[0])
		for _, w := range o.Ways[1:] {
			fmt.Fprintf(&b, ",%d", w)
		}
	}
	if len(o.Size) > 0 {
		b.WriteString("/")
		b.WriteString(bindingsKey(o.Size))
	}
	return b.String()
}

// bindingsKey renders parameter bindings in name order, e.g. "M=20,N=30".
func bindingsKey(bindings map[string]int64) string {
	names := make([]string, 0, len(bindings))
	for n := range bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, bindings[n])
	}
	return strings.Join(parts, ",")
}

// workload describes one benchmark workload. A run of a workload executes
// whole rounds; every round is a seeded permutation of the same op set, so
// each run of a seed sees the same multiset of ops and per-op aggregates
// do not depend on where a run stops.
type workload struct {
	name    string
	workers int
	// roundSeconds is the duration of one round on the reference host
	// (2 vCPU, go1.24); it sizes the round count of a run from --seconds so
	// that the amount of work per run is fixed.
	roundSeconds float64
	// opSet draws the seed's op set (one round).
	opSet func(rng *rand.Rand) []opSpec
	// references returns the simulator's counts for every op of the set,
	// keyed by opSpec.key. It runs before setup and is not timed.
	references func(ops []opSpec) (map[string]core.Reference, error)
	// setup builds the state the timed ops run against, filling every lazy
	// state an op would otherwise fill on first touch.
	setup func(tr *tracer) (runner, error)
}

// runner executes one op against the workload state. A nil tracer runs the
// op the way a library user would call it; a non-nil tracer splits the op
// into its layer calls and records a span around each.
type runner func(op opSpec, tr *tracer) (*core.Result, error)

var workloads = []*workload{coldMini(), warmSetAssoc(), paramEval()}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// options returns the analysis options of a workload: every optimization
// on, an explicit worker count, and the trace fallback enabled exactly as
// core.DefaultOptions has it.
func options(workers int) core.Options {
	opts := core.DefaultOptions()
	opts.Parallelism = workers
	return opts
}

func buildKernel(name string, size polybench.Size) (*scop.Program, error) {
	k, ok := polybench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	return k.Build(size), nil
}

// lineSize is the cache line size of every benchmark hierarchy.
const lineSize = 64

// splitVerify, when tracing, runs the static verification the analysis
// would run first as a layer call of its own, and returns options that
// skip it inside the analysis, so both modes do the same work.
func splitVerify(prog *scop.Program, opts core.Options, tr *tracer) (core.Options, error) {
	if tr == nil {
		return opts, nil
	}
	sp := tr.begin("scopcheck.Check")
	diags := scopcheck.Check(prog)
	tr.end(sp)
	if scopcheck.HasErrors(diags) {
		return opts, fmt.Errorf("%s does not verify: %v", prog.Name, diags)
	}
	opts.SkipVerify = true
	return opts, nil
}

// simulateMini runs the simulator on the MINI program of every op, keyed by
// opSpec.key.
func simulateMini(ops []opSpec, simulate func(*scop.Program, opSpec) (core.Reference, error)) (map[string]core.Reference, error) {
	refs := map[string]core.Reference{}
	for _, op := range ops {
		prog, err := buildKernel(op.Kernel, polybench.Mini)
		if err != nil {
			return nil, err
		}
		if refs[op.key()], err = simulate(prog, op); err != nil {
			return nil, fmt.Errorf("simulating %s: %w", op.key(), err)
		}
	}
	return refs, nil
}

// computeDistances runs the distance phase.
func computeDistances(prog *scop.Program, opts core.Options, tr *tracer) (*core.DistanceModel, error) {
	opts, err := splitVerify(prog, opts, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("core.ComputeDistances")
	defer tr.end(sp)
	return core.ComputeDistances(prog, lineSize, opts)
}

// ---------------------------------------------------------------------------
// cold-mini: one full analysis per op.
// ---------------------------------------------------------------------------

// coldKernels are the PolyBench kernels whose MINI cold analysis takes
// about 0.3-2.5 s on the reference host.
var coldKernels = []string{
	"atax", "bicg", "mvt", "gemm", "gesummv", "syrk", "trisolv", "deriche",
	"jacobi-1d", "trmm", "gemver", "2mm", "gramschmidt", "syr2k", "adi", "3mm",
}

// coldConfig is the small fully associative two-level hierarchy of
// cold-mini: small enough that every kernel has capacity misses.
var coldConfig = core.Config{LineSize: lineSize, CacheSizes: []int64{512, 2048}}

func coldMini() *workload {
	return &workload{
		name:         "cold-mini",
		workers:      1,
		roundSeconds: 14.4,
		opSet: func(rng *rand.Rand) []opSpec {
			ops := make([]opSpec, len(coldKernels))
			for i, k := range coldKernels {
				ops[i] = opSpec{Kernel: k}
			}
			return ops
		},
		references: func(ops []opSpec) (map[string]core.Reference, error) {
			return simulateMini(ops, func(prog *scop.Program, _ opSpec) (core.Reference, error) {
				return core.SimulateReference(prog, coldConfig)
			})
		},
		setup: func(tr *tracer) (runner, error) {
			opts := options(1)
			run := func(op opSpec, tr *tracer) (*core.Result, error) {
				prog, err := buildKernel(op.Kernel, polybench.Mini)
				if err != nil {
					return nil, err
				}
				if tr == nil {
					return core.Analyze(prog, coldConfig, opts)
				}
				dm, err := computeDistances(prog, opts, tr)
				if err != nil {
					return nil, err
				}
				sp := tr.begin("core.CountMisses")
				defer tr.end(sp)
				return dm.CountMisses(coldConfig)
			}
			// A cold op has no model to reuse; setup only warms the
			// process (heap arenas, the presburger free lists) with the
			// cheapest kernel so the first timed op is not special.
			if _, err := run(opSpec{Kernel: "bicg"}, tr); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			return run, nil
		},
	}
}

// ---------------------------------------------------------------------------
// warm-setassoc: set-associative counting against prebuilt distance models.
// ---------------------------------------------------------------------------

var warmKernels = []string{"gemm", "trmm", "gemver", "syrk"}

// warmWays are the per-level associativities of the warm-setassoc
// hierarchies. The mixed 4/8-way hierarchy costs between the other two, so
// op_ms.p50 and op_ms.tail fall inside its block of ops rather than on the
// boundary between the cheap 8-way and the expensive 4-way ops.
var warmWays = [][]int{{4, 4}, {4, 8}, {8, 8}}

func warmConfig(ways []int) core.Config {
	return core.Config{LineSize: lineSize, CacheSizes: []int64{512, 2048}, Ways: ways}
}

func warmSetAssoc() *workload {
	// One worker, like the other workloads: at 2 workers the ops' wall time
	// followed how much of the second vCPU the host granted (CPU time per op
	// spread 8%, op_ms.p50 28% and op_ms.tail 39% over ten runs), so no
	// bound could hold. See README.md.
	const workers = 1
	return &workload{
		name:         "warm-setassoc",
		workers:      workers,
		roundSeconds: 23,
		opSet: func(rng *rand.Rand) []opSpec {
			var ops []opSpec
			for _, k := range warmKernels {
				for _, w := range warmWays {
					ops = append(ops, opSpec{Kernel: k, Ways: w})
				}
			}
			return ops
		},
		references: func(ops []opSpec) (map[string]core.Reference, error) {
			return simulateMini(ops, func(prog *scop.Program, op opSpec) (core.Reference, error) {
				return core.SimulateSetAssocReference(prog, warmConfig(op.Ways))
			})
		},
		setup: func(tr *tracer) (runner, error) {
			opts := options(workers)
			models := map[string]*core.DistanceModel{}
			for _, k := range warmKernels {
				prog, err := buildKernel(k, polybench.Mini)
				if err != nil {
					return nil, err
				}
				dm, err := computeDistances(prog, opts, tr)
				if err != nil {
					return nil, fmt.Errorf("distances of %s: %w", k, err)
				}
				models[k] = dm
			}
			return func(op opSpec, tr *tracer) (*core.Result, error) {
				dm, ok := models[op.Kernel]
				if !ok {
					return nil, fmt.Errorf("no model for %s", op.Kernel)
				}
				sp := tr.begin("core.CountMisses")
				defer tr.end(sp)
				return dm.CountMissesWith(warmConfig(op.Ways), workers)
			}, nil
		},
	}
}

// ---------------------------------------------------------------------------
// param-eval: parametric model evaluation at seeded sizes.
// ---------------------------------------------------------------------------

// paramKernel is a parametric kernel of param-eval with the number of
// sizes a round evaluates it at.
type paramKernel struct {
	name   string
	strata int
}

// gemm gets twice the ops of trmm so that op_ms.p50 falls among the gemm
// ops (pure polynomial evaluation) and op_ms.tail among the trmm ops
// (residual piece counting that grows with size).
var paramKernels = []paramKernel{{"gemm", 12}, {"trmm", 6}}

// paramConfig is the fully associative hierarchy every param-eval op is
// evaluated against; setup evaluates both capacities once.
var paramConfig = core.Config{LineSize: lineSize, CacheSizes: []int64{4096, 32768}}

// paramJitter is the number of seeded offsets of a param-eval size.
const paramJitter = 4

// paramSize returns the bindings of stratum s of a kernel at offset j: the
// sizes of the strata are evenly spaced from MINI towards MEDIUM, and the
// seed adds j in [0, paramJitter) to every parameter. The offset changes
// the inputs from seed to seed without changing the cost of a round much.
// expected_param.json covers every (stratum, offset) pair.
func paramSize(k paramKernel, s, j int) (map[string]int64, error) {
	pk, ok := polybench.ParametricByName(k.name)
	if !ok {
		return nil, fmt.Errorf("unknown parametric kernel %q", k.name)
	}
	lo, hi := pk.Bindings(polybench.Mini), pk.Bindings(polybench.Medium)
	out := make(map[string]int64, len(lo))
	for name, l := range lo {
		out[name] = l + (hi[name]-l)*int64(s)/int64(k.strata) + int64(j)
	}
	return out, nil
}

func paramEval() *workload {
	return &workload{
		name:         "param-eval",
		workers:      1,
		roundSeconds: 2.5,
		opSet: func(rng *rand.Rand) []opSpec {
			var ops []opSpec
			for _, k := range paramKernels {
				for s := 0; s < k.strata; s++ {
					size, err := paramSize(k, s, rng.Intn(paramJitter))
					if err != nil {
						panic(err) // paramKernels are registered parametric kernels
					}
					ops = append(ops, opSpec{Kernel: k.name, Size: size})
				}
			}
			return ops
		},
		references: func(ops []opSpec) (map[string]core.Reference, error) {
			refs := map[string]core.Reference{}
			for _, op := range ops {
				ref, ok := expectedParam[op.key()]
				if !ok {
					return nil, fmt.Errorf("no simulator result for %s in expected_param.json", op.key())
				}
				refs[op.key()] = ref
			}
			return refs, nil
		},
		setup: func(tr *tracer) (runner, error) {
			opts := options(1)
			models := map[string]*core.ParametricModel{}
			for _, k := range paramKernels {
				pk, _ := polybench.ParametricByName(k.name)
				prog := pk.Build()
				popts, err := splitVerify(prog, opts, tr)
				if err != nil {
					return nil, err
				}
				sp := tr.begin("core.ComputeParametricModel")
				pm, err := core.ComputeParametricModel(prog, lineSize, popts)
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("parametric model of %s: %w", k.name, err)
				}
				// The first Eval at a capacity pays the symbolic per-capacity
				// count that later calls reuse; pay it here.
				sp = tr.begin("core.Eval")
				_, err = pm.Eval(paramConfig, pk.Bindings(polybench.Mini))
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("warm-up Eval of %s: %w", k.name, err)
				}
				models[k.name] = pm
			}
			return func(op opSpec, tr *tracer) (*core.Result, error) {
				pm, ok := models[op.Kernel]
				if !ok {
					return nil, fmt.Errorf("no model for %s", op.Kernel)
				}
				sp := tr.begin("core.Eval")
				defer tr.end(sp)
				return pm.Eval(paramConfig, op.Size)
			}, nil
		},
	}
}
