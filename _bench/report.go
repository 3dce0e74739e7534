package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// loadMetricDefs reads the end-to-end metrics (what an untraced run
// reports) and the per-layer metrics (what a traced run reports) from the
// benchmark definition, BENCHMARK.json at the repository root.
func loadMetricDefs(path string) (endToEnd, perLayer []metricDef, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	type def struct{ Name, Unit string }
	var bench struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	conv := func(ds []def) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{d.Name, d.Unit}
		}
		return out
	}
	if len(bench.EndToEnd) == 0 || len(bench.PerLayer) == 0 {
		return nil, nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return conv(bench.EndToEnd), conv(bench.PerLayer), nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult picks the metrics of defs out of vals — each must be present
// and finite — and attaches their units.
func buildResult(correct bool, attempted, failed int64, defs []metricDef, vals map[string]float64) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	if attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	if failed < 0 || failed > attempted {
		return res, fmt.Errorf("failed %d out of range for %d attempted", failed, attempted)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s missing", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// writeReport prints the human-readable lines (one per metric, the
// operation counts and the host record) and, last, the result as one JSON
// line.
func writeReport(w io.Writer, workload string, host hostRecord, defs []metricDef, res result) error {
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hostJSON)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "%s: %-32s %14.6g %s\n", workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
