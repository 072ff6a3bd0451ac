package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"haystack/internal/core"
	"haystack/internal/polybench"
)

// expected_param.json holds the simulator's counts (core.SimulateReference
// of the instantiated program) for every param-eval size (stratum and
// offset, see paramSize) against paramConfig. Live simulation of a
// MEDIUM-sized trace takes 8-19 s, far longer than the op it checks.
// Regenerate with --gen-expected.
//
//go:embed expected_param.json
var expectedParamJSON []byte

// expectedEntry is one simulator result of expected_param.json.
type expectedEntry struct {
	Op               string  `json:"op"`
	TotalAccesses    int64   `json:"total_accesses"`
	CompulsoryMisses int64   `json:"compulsory_misses"`
	TotalMisses      []int64 `json:"total_misses"`
}

var expectedParam = mustLoadExpected(expectedParamJSON)

func mustLoadExpected(data []byte) map[string]core.Reference {
	var entries []expectedEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		panic(fmt.Sprintf("expected_param.json: %v", err))
	}
	out := make(map[string]core.Reference, len(entries))
	for _, e := range entries {
		out[e.Op] = core.Reference{TotalAccesses: e.TotalAccesses, CompulsoryMisses: e.CompulsoryMisses, TotalMisses: e.TotalMisses}
	}
	return out
}

// generateExpected simulates every param-eval size and writes the results
// to path.
func generateExpected(path string) error {
	var entries []expectedEntry
	for _, k := range paramKernels {
		pk, ok := polybench.ParametricByName(k.name)
		if !ok {
			return fmt.Errorf("unknown parametric kernel %q", k.name)
		}
		prog := pk.Build()
		for s := 0; s < k.strata; s++ {
			for j := 0; j < paramJitter; j++ {
				size, err := paramSize(k, s, j)
				if err != nil {
					return err
				}
				inst, err := prog.Instantiate(size)
				if err != nil {
					return fmt.Errorf("instantiating %s at %v: %w", k.name, size, err)
				}
				ref, err := core.SimulateReference(inst, paramConfig)
				if err != nil {
					return fmt.Errorf("simulating %s at %v: %w", k.name, size, err)
				}
				op := opSpec{Kernel: k.name, Size: size}
				entries = append(entries, expectedEntry{Op: op.key(), TotalAccesses: ref.TotalAccesses,
					CompulsoryMisses: ref.CompulsoryMisses, TotalMisses: ref.TotalMisses})
				fmt.Fprintf(os.Stderr, "%s: %d accesses\n", op.key(), ref.TotalAccesses)
			}
		}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkResult compares a model result with the simulator's counts: total
// accesses, compulsory misses and the total misses of every level must be
// equal, and the result must be exact.
func checkResult(res *core.Result, ref core.Reference) error {
	if res.Tier == core.TierBounded {
		return fmt.Errorf("result is bounded, not exact: %s", res.FallbackReason)
	}
	got := make([]int64, len(res.Levels))
	for i, lv := range res.Levels {
		got[i] = lv.TotalMisses
	}
	if res.TotalAccesses != ref.TotalAccesses || res.CompulsoryMisses != ref.CompulsoryMisses || !slices.Equal(got, ref.TotalMisses) {
		return fmt.Errorf("model (accesses %d, compulsory %d, misses %v) != simulator (accesses %d, compulsory %d, misses %v)",
			res.TotalAccesses, res.CompulsoryMisses, got, ref.TotalAccesses, ref.CompulsoryMisses, ref.TotalMisses)
	}
	return nil
}
