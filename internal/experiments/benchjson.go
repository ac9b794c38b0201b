package experiments

import "encoding/json"

// MarshalBench renders a benchmark summary as the bytes of a BENCH_*.json
// file: two-space-indented JSON and a trailing newline. cmd/ghbench writes
// its summaries through it and TestQuickBaselinesReproduce compares its
// output with bench/baselines, so the artifact format cannot diverge between
// the writer and the check.
func MarshalBench(v any) ([]byte, error) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}
