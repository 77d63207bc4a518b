// Command e2ebench is odakit's end-to-end benchmark: one seeded workload
// driven through the real data path, its outputs checked, and every
// end-to-end metric printed by name with its unit. With --trace 1 it
// instead prints the per-layer ledger measured by bench-side spans
// around the calls into each layer. See README.md for the workloads,
// the metric → layer map, and how to read the numbers.
//
//	bash e2ebench/run.sh --workload pipeline_local --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer fix the reported metric sets, in report order:
// every workload reports all of them, a layer it bypasses as 0.
// BENCHMARK.json declares the same lists; the smoke test compares them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_rec_per_s", "rec/s"},
	{"ingest_batch_p50_ms", "ms"},
	{"panel_p50_ms", "ms"},
	{"panel_p90_ms", "ms"},
	{"history_p50_ms", "ms"},
	{"history_p90_ms", "ms"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"schema.encode_ns_per_rec", "ns/rec"},
	{"schema.bytes_per_rec", "B/rec"},
	{"stream.publish_ns_per_rec", "ns/rec"},
	{"tsdb.insert_ns_per_rec", "ns/rec"},
	{"tsdb.query_us_p50_panel", "us"},
	{"tsdb.query_us_p50_history", "us"},
	{"tsdb.cache_hit_ratio", "ratio"},
	{"tsdb.cache_lookups", "count"},
	{"tsdb.cells_scanned_per_query", "count"},
	{"tsdb.cold_segments_pruned_ratio", "ratio"},
	{"tsdb.cold_rowgroups_pruned_ratio", "ratio"},
	{"tsdb.cold_wall_ms", "ms"},
	{"tsdb.scan_wall_ms", "ms"},
	{"tsdb.merge_wall_ms", "ms"},
	{"logsearch.add_ns_per_event", "ns/rec"},
	{"logsearch.search_ms_p50", "ms"},
	{"cq.pump_ns_per_rec", "ns/rec"},
	{"cq.catchup_ms", "ms"},
	{"cq.read_us_p50", "us"},
	{"sproc.drain_ns_per_rec", "ns/rec"},
	{"sproc.records_per_window", "count"},
	{"columnar.silver_bytes_per_row", "B/row"},
	{"medallion.gold_build_ms", "ms"},
	{"medallion.refine_rec_per_s", "rec/s"},
	{"cluster.publish_ns_per_rec", "ns/rec"},
	{"cluster.insert_ns_per_rec", "ns/rec"},
	{"cluster.transport_calls_per_batch", "count"},
	{"cluster.replicated_per_rec", "count"},
	{"cluster.scatter_cells_scanned", "count"},
	{"cluster.small_batch_p50_ms", "ms"},
	{"wal.fsyncs_per_batch", "count"},
	{"wal.fsyncs_per_small_batch", "count"},
	{"wal.appends_per_batch", "count"},
	{"wal.bytes_per_rec", "B/rec"},
	{"gateway.self_us_p50", "us"},
	{"gateway.queued_max", "count"},
	{"httpapi.self_us_p50", "us"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.driver_ns_per_rec", "ns/rec"},
	{"bench.generator_late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_frac", "ratio"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for traces and scratch state
	size     sizes
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string // failed correctness checks
	metrics           map[string]float64
	stamp             map[string]any // input sizes and policies for the environment stamp
	notes             []string       // informational lines (not gated)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(cfg config, o *outcome) error{
	"pipeline_local":      runLocal,
	"pipeline_replicated": runReplicated,
	"query_serving":       runServing,
}

func main() {
	cfg := config{size: defaultSizes}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "pipeline_local | pipeline_replicated | query_serving")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: telemetry, job schedule and query mix")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "e2ebench-out"), "directory for span traces and temporary state")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %g, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if !report(os.Stdout, cfg, o) {
		os.Exit(1)
	}
}

// run executes the workload, in trace mode twice (untraced, then
// traced) so the tracing overhead is measured, not assumed.
func run(cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	fn := workloads[cfg.workload]
	o := &outcome{metrics: map[string]float64{}, stamp: map[string]any{}}
	if !cfg.trace {
		return o, fn(cfg, o)
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	half.trace = false
	plain := &outcome{metrics: map[string]float64{}, stamp: map[string]any{}}
	if err := fn(half, plain); err != nil {
		return nil, err
	}
	half.trace = true
	if err := fn(half, o); err != nil {
		return nil, err
	}
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.problems = append(plain.problems, o.problems...)
	if base, traced := plain.metrics[costKey], o.metrics[costKey]; base > 0 {
		o.metrics["trace.overhead_pct"] = 100 * (traced - base) / base
	}
	if u := o.metrics["trace.unattributed_frac"]; u > maxUnattributed {
		o.problem("ledger: %.1f%% of the busy wall time is in no layer span (tolerance %.0f%%)",
			100*u, 100*maxUnattributed)
	}
	return o, nil
}

// maxUnattributed is the ledger's tolerance: layer self times must
// account for all but this share of each workload's busy wall time.
const maxUnattributed = 0.05

// costKey is the internal metric each workload sets to its per-operation
// cost, compared between the untraced and traced passes.
const costKey = "_cost"

// report writes the human-readable report, the environment stamp and the
// result line; it reports whether every correctness check passed.
func report(w io.Writer, cfg config, o *outcome) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	stamp := environment(cfg, o)
	js, _ := json.Marshal(stamp)
	fmt.Fprintf(w, "stamp %s\n", js)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := o.metrics[d.name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	correct := len(o.problems) == 0 && o.attempted > 0
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, ms})
	fmt.Fprintln(w, string(line))
	return correct
}

// environment is the stamp every result carries: the host, the build,
// the seed, the input sizes and the repeat count.
func environment(cfg config, o *outcome) map[string]any {
	s := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"revision":   revision(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	keys := make([]string, 0, len(o.stamp))
	for k := range o.stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s[k] = o.stamp[k]
	}
	return s
}

// revision reads the VCS stamp the go command embeds when the benchmark
// is built inside a git checkout; a plain source tree has none.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "none (not built from a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// deadline returns when a timed loop of cfg.seconds starting now ends.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// tmpDir makes a fresh directory for temporary state under cfg.out.
func tmpDir(cfg config, name string) (string, error) {
	base, err := filepath.Abs(cfg.out)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
