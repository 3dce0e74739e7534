package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

var endToEnd = []metricDef{{"setup_s", "s"}, {"latency.p50_ms", "ms"}}

func values(defs []metricDef, v float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range defs {
		m[d.name] = v
	}
	return m
}

func TestBuildResultChecks(t *testing.T) {
	if _, err := buildResult(true, 10, 0, endToEnd, values(endToEnd, 1.5)); err != nil {
		t.Fatal(err)
	}
	missing := values(endToEnd, 1)
	delete(missing, "setup_s")
	for name, c := range map[string]struct {
		attempted, failed int64
		vals              map[string]float64
	}{
		"missing metric": {10, 0, missing},
		"NaN":            {10, 0, values(endToEnd, math.NaN())},
		"nothing run":    {0, 0, values(endToEnd, 1)},
		"failed > run":   {3, 4, values(endToEnd, 1)},
	} {
		if _, err := buildResult(true, c.attempted, c.failed, endToEnd, c.vals); err == nil {
			t.Errorf("%s: buildResult accepted it", name)
		}
	}
}

func TestReportLastLineIsTheResult(t *testing.T) {
	res, err := buildResult(false, 9, 1, endToEnd, values(endToEnd, 0.8127))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeReport(&buf, "train-dp", newHostRecord(), endToEnd, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "host {") {
		t.Fatalf("first line %q is not the host record", lines[0])
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 9 || got.Failed != 1 || len(got.Metrics) != len(endToEnd) {
		t.Fatalf("round trip: %+v", got)
	}
	if m := got.Metrics["setup_s"]; m.Value != 0.8127 || m.Unit != "s" {
		t.Fatalf("setup_s: %+v", m)
	}
}

func TestLoadMetricDefs(t *testing.T) {
	e2e, layers, err := loadMetricDefs("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) == 0 || e2e[0] != (metricDef{"setup_s", "s"}) {
		t.Fatalf("end_to_end %v, %d per_layer", e2e, len(layers))
	}
	if _, _, err := loadMetricDefs("no-such-file.json"); err == nil {
		t.Fatal("a missing definition was accepted")
	}
}
