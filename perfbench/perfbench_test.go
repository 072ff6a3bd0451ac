package main

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"haystack/internal/core"
	"haystack/internal/polybench"
)

func TestScheduleIsFixedBySeed(t *testing.T) {
	for _, w := range workloads {
		set1, order1 := schedule(w, 7, 3)
		set2, order2 := schedule(w, 7, 3)
		if !reflect.DeepEqual(set1, set2) || !reflect.DeepEqual(order1, order2) {
			t.Errorf("%s: seed 7 gave two different op lists", w.name)
		}
		_, other := schedule(w, 8, 3)
		if reflect.DeepEqual(order1, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same op order", w.name)
		}
		// Every round is a permutation of the op set.
		count := map[string]int{}
		for _, op := range order1 {
			count[op.key()]++
		}
		for _, op := range set1 {
			if count[op.key()] != 3 {
				t.Errorf("%s: op %s ran %d times in 3 rounds", w.name, op.key(), count[op.key()])
			}
		}
	}
}

func TestParamSizesSpanMiniToMedium(t *testing.T) {
	w, _ := workloadByName("param-eval")
	want := 0
	for _, k := range paramKernels {
		want += k.strata
	}
	for seed := int64(1); seed <= 20; seed++ {
		set, _ := schedule(w, seed, 1)
		if len(set) != want {
			t.Fatalf("seed %d: %d ops, want %d", seed, len(set), want)
		}
		if _, err := w.references(set); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, k := range paramKernels {
		pk, _ := polybench.ParametricByName(k.name)
		lo, hi := pk.Bindings(polybench.Mini), pk.Bindings(polybench.Medium)
		for s := 0; s < k.strata; s++ {
			for j := 0; j < paramJitter; j++ {
				size, err := paramSize(k, s, j)
				if err != nil {
					t.Fatal(err)
				}
				for name, v := range size {
					if v < lo[name] || v > hi[name] {
						t.Errorf("%s stratum %d offset %d: %s=%d outside MINI..MEDIUM", k.name, s, j, name, v)
					}
				}
				if _, ok := expectedParam[opSpec{Kernel: k.name, Size: size}.key()]; !ok {
					t.Errorf("expected_param.json lacks %s at %v", k.name, size)
				}
			}
		}
	}
}

// deterministicStats clears the fields of core.Stats that legitimately
// differ between two executions of one op: wall-clock times and the
// scheduler and arena counters.
func deterministicStats(s core.Stats) core.Stats {
	s.StackDistanceTime, s.CapacityTime, s.CompulsoryTime, s.TotalTime = 0, 0, 0, 0
	s.CapacityWorkerTime = nil
	s.Steals, s.Splits, s.ArenaHits, s.ArenaMisses = 0, 0, 0, 0
	return s
}

// TestRepeatedOpGivesIdenticalCounters runs ops right after setup and again
// afterwards: setup must leave no lazy state for the first timed op to
// fill, so both executions report the same counters.
func TestRepeatedOpGivesIdenticalCounters(t *testing.T) {
	cases := []struct {
		workload string
		op       opSpec
	}{
		{"param-eval", opSpec{Kernel: "trmm", Size: map[string]int64{"M": 105, "N": 127}}},
		{"param-eval", opSpec{Kernel: "gemm", Size: map[string]int64{"NI": 200, "NJ": 220, "NK": 240}}},
		{"warm-setassoc", opSpec{Kernel: "trmm", Ways: []int{8, 8}}},
		{"cold-mini", opSpec{Kernel: "adi"}},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, c := range cases {
		w, _ := workloadByName(c.workload)
		runOp, err := w.setup(nil)
		if err != nil {
			t.Fatalf("%s setup: %v", c.workload, err)
		}
		var first core.Stats
		for rep := 0; rep < 2; rep++ {
			res, err := runOp(c.op, newTracer())
			if err != nil {
				t.Fatalf("%s %s: %v", c.workload, c.op.key(), err)
			}
			st := deterministicStats(res.Stats)
			if rep == 0 {
				first = st
			} else if !reflect.DeepEqual(first, st) {
				t.Errorf("%s %s: counters differ on repetition:\nfirst  %+v\nsecond %+v", c.workload, c.op.key(), first, st)
			}
		}
	}
}

// deterministicMetric reports whether a per-layer metric is a count the
// program makes deterministically (it must repeat exactly for a seed).
func deterministicMetric(name string) bool {
	for _, p := range []string{"qpoly.", "counting.", "setassoc."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return strings.HasPrefix(name, "core.") && strings.HasSuffix(name, "_splits")
}

// TestCountersRepeatAcrossRuns makes two traced runs of one seed and
// requires every deterministic counter to repeat exactly.
func TestCountersRepeatAcrossRuns(t *testing.T) {
	names := []string{"param-eval", "warm-setassoc", "cold-mini"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w, _ := workloadByName(name)
		var first map[string]metric
		for rep := 0; rep < 2; rep++ {
			res, err := runWorkload(w, 3, 1, true, t.TempDir(), io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct {
				t.Fatalf("%s: %d of %d ops failed the oracle", name, res.Failed, res.Attempted)
			}
			if rep == 0 {
				first = res.Metrics
				continue
			}
			n := 0
			for m, v := range first {
				if !deterministicMetric(m) {
					continue
				}
				n++
				if res.Metrics[m] != v {
					t.Errorf("%s: %s = %v, then %v", name, m, v.Value, res.Metrics[m].Value)
				}
			}
			if n == 0 {
				t.Errorf("%s: no deterministic counters compared", name)
			}
		}
	}
}
