package main

import (
	"time"

	"haystack/internal/core"
)

// layerMetrics derives the per-layer metrics of a traced run from the spans
// and the per-op records. Span timings are medians in the unit of the
// metric; counters are means per traced op, which repeat exactly for a
// seed because every run executes whole rounds of the same op set. A layer
// the workload does not reach reports 0.
func layerMetrics(tr *tracer, recs []tracedOp, rounds int, calibMS, overhead float64) map[string]metric {
	var ok []*core.Result
	var rt runtimeCounters
	var arenaHits, arenaMisses int64
	for _, r := range recs {
		rt = rt.add(r.runtime)
		arenaHits += r.arena.Hits
		arenaMisses += r.arena.Misses
		if r.res != nil {
			ok = append(ok, r.res)
		}
	}
	n := float64(len(recs))

	// spanMS is the median duration of a layer call in ms, over the timed
	// ops or, for layers only setup reaches, over setup.
	spanMS := func(name string) float64 {
		d := tr.durations(name, false)
		if len(d) == 0 {
			d = tr.durations(name, true)
		}
		return median(d) * 1000
	}
	statMS := func(f func(core.Stats) time.Duration) float64 {
		var xs []float64
		for _, r := range ok {
			xs = append(xs, f(r.Stats).Seconds()*1000)
		}
		return median(xs)
	}
	perOp := func(f func(core.Stats) float64) float64 {
		var s float64
		for _, r := range ok {
			s += f(r.Stats)
		}
		return s / float64(max(1, len(ok)))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var peak int
	var before, after, busy, capacity float64
	var fallbacks int
	for _, r := range ok {
		st := r.Stats
		peak = max(peak, st.PeakBasicMaps)
		before += float64(st.BasicMapsBeforeCoalesce)
		after += float64(st.BasicMapsAfterCoalesce)
		for _, b := range st.CapacityWorkerTime {
			busy += b.Seconds()
		}
		capacity += float64(st.CapacityWorkers) * st.CapacityTime.Seconds()
		if r.UsedTraceFallback {
			fallbacks++
		}
	}

	count := func(v float64) metric { return metric{v, "count"} }
	ms := func(v float64) metric { return metric{v, "ms"} }
	return map[string]metric{
		"scopcheck.check_ms":           ms(spanMS("scopcheck.Check")),
		"core.distances_ms":            ms(spanMS("core.ComputeDistances")),
		"core.stackdist_ms":            ms(statMS(func(s core.Stats) time.Duration { return s.StackDistanceTime })),
		"core.compulsory_ms":           ms(statMS(func(s core.Stats) time.Duration { return s.CompulsoryTime })),
		"presburger.peak_basic_maps":   count(float64(peak)),
		"presburger.coalesce_shrink":   metric{ratio(before, after), "ratio"},
		"presburger.arena_hit_ratio":   metric{ratio(float64(arenaHits), float64(arenaHits+arenaMisses)), "ratio"},
		"core.count_ms":                ms(spanMS("core.CountMisses")),
		"core.capacity_ms":             ms(statMS(func(s core.Stats) time.Duration { return s.CapacityTime })),
		"counting.counted_pieces":      count(perOp(func(s core.Stats) float64 { return float64(s.CountedPieces) })),
		"counting.partial_enum_points": count(perOp(func(s core.Stats) float64 { return float64(s.PartialEnumerationPoints) })),
		"counting.full_enum_points":    count(perOp(func(s core.Stats) float64 { return float64(s.FullEnumerationPoints) })),
		"core.rasterization_splits":    count(perOp(func(s core.Stats) float64 { return float64(s.RasterizationSplits) })),
		"core.equalization_splits":     count(perOp(func(s core.Stats) float64 { return float64(s.EqualizationSplits) })),
		"setassoc.sets": count(perOp(func(s core.Stats) float64 {
			var sets int64
			for _, l := range s.SetAssoc {
				sets += l.Sets
			}
			return float64(sets)
		})),
		"setassoc.summand_pieces": count(perOp(func(s core.Stats) float64 {
			var pieces int
			for _, l := range s.SetAssoc {
				for _, p := range l.SetPieces {
					pieces += p
				}
			}
			return float64(pieces)
		})),
		"counting.budget_units":    count(perOp(func(s core.Stats) float64 { return float64(s.BudgetUsed) })),
		"core.eval_ms":             ms(median(tr.durations("core.Eval", false)) * 1000),
		"core.param_build_s":       metric{median(tr.durations("core.ComputeParametricModel", true)), "s"},
		"qpoly.distance_pieces":    count(perOp(func(s core.Stats) float64 { return float64(s.DistancePieces) })),
		"qpoly.nonaffine_pieces":   count(perOp(func(s core.Stats) float64 { return float64(s.NonAffinePieces) })),
		"parwork.busy_ratio":       metric{ratio(busy, capacity), "ratio"},
		"parwork.steals":           count(perOp(func(s core.Stats) float64 { return float64(s.Steals) })),
		"parwork.splits":           count(perOp(func(s core.Stats) float64 { return float64(s.Splits) })),
		"runtime.allocs_per_op":    count(rt.allocs / n),
		"runtime.alloc_mib_per_op": metric{rt.allocBytes / n / (1 << 20), "MiB"},
		"runtime.gc_cycles_per_op": count(rt.gcCycles / n),
		"runtime.gc_cpu_share":     metric{ratio(rt.gcCPU, rt.totalCPU), "ratio"},
		"reusedist.fallback_ops":   count(float64(fallbacks) / float64(rounds)),
		"trace.overhead_ratio":     metric{overhead, "ratio"},
		"host.calib_ms":            ms(calibMS),
	}
}
