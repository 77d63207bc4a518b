package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload end to end in about a second each, with
// every correctness check on.
var tinySizes = sizes{
	nodes:        4,
	localMinutes: 1, replMinutes: 1, localBatch: 128, replBatch: 512, replSmall: 5 * time.Second,
	panels: 40, history: 20, minRounds: 1, setups: 2,
	servePreload: 2*time.Hour + 15*time.Minute, serveHot: 10 * time.Minute,
	serveRate: 40, serveSetups: 1,
	historyShapes: 20, panelShapes: 8,
}

// TestMetricsMatchBenchmarkJSON checks that the metric lists the
// benchmark reports are the ones BENCHMARK.json declares, in order, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		decl []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		var got []metricDef
		for _, d := range c.decl {
			got = append(got, metricDef{d.Name, d.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json %s = %v\nbenchmark reports %v", c.key, got, c.defs)
		}
	}
}

// TestWorkloadsSmoke runs each workload untraced and traced at tiny size
// on two seeds and checks the result line: correct, nothing failed, and
// exactly the declared metric set with its units.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"pipeline_local", "pipeline_replicated", "query_serving"} {
		for _, trace := range []bool{false, true} {
			for _, seed := range []int64{1, 2} {
				if trace && seed != 1 {
					continue
				}
				cfg := config{workload: name, seed: seed, seconds: 1, trace: trace, out: t.TempDir(), size: tinySizes}
				o, err := run(cfg)
				if err != nil {
					t.Fatalf("%s trace=%v seed=%d: %v", name, trace, seed, err)
				}
				var buf bytes.Buffer
				ok := report(&buf, cfg, o)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%s: last line is not the result: %v", name, err)
				}
				if !ok || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s trace=%v seed=%d: correct=%v failed=%d/%d:\n%s",
						name, trace, seed, res.Correct, res.Failed, res.Attempted, buf.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Fatalf("%s: metric %s missing or without its unit", name, d.name)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v.Value)
					}
				}
			}
		}
	}
}
