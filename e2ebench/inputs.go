package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"odakit/internal/core"
	"odakit/internal/jobsched"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// Inputs are generated before any timer starts, from the seed alone:
// telemetry observations and syslog events from internal/telemetry, the
// job schedule from internal/jobsched, and the query mix from a seeded
// math/rand. The load generator is not the system under test; the
// program only ever receives the generated values.

// sizes fixes how much work one run does. Every seed gets the same
// sizes, so runs with different seeds measure the same amount of work.
type sizes struct {
	nodes int

	localMinutes int           // pipeline_local: simulated minutes ingested per round
	replMinutes  int           // pipeline_replicated: simulated minutes per round
	localBatch   int           // pipeline_local: records per producer batch (the facility's IngestBatch default)
	replBatch    int           // pipeline_replicated: records per producer batch
	replSmall    time.Duration // pipeline_replicated: simulated time sent in localBatch-sized batches per round
	panels       int           // pipeline workloads: panel queries per round
	history      int           // pipeline workloads: history queries per round
	minRounds    int           // pipeline workloads: rounds even when --seconds is short
	setups       int           // pipeline workloads: set-ups timed per round (median reported)

	servePreload  time.Duration // query_serving: gpu + facility history preloaded
	serveHot      time.Duration // query_serving: the published tail (≥ the longest CQ view window)
	serveRate     float64       // query_serving: interactive slots per second
	serveSetups   int           // query_serving: set-ups per run (median reported)
	historyShapes int           // distinct history shapes (≥ 4× the 64-entry result cache)
	panelShapes   int           // distinct panel shapes (fits the result cache)
}

var defaultSizes = sizes{
	nodes:        32,
	localMinutes: 5, replMinutes: 2, localBatch: 512, replBatch: 16384, replSmall: 10 * time.Second,
	panels: 1200, history: 400, minRounds: 2, setups: 10,
	servePreload: 2*time.Hour + 15*time.Minute, serveHot: 15 * time.Minute,
	serveRate: 100, serveSetups: 5,
	historyShapes: 256, panelShapes: 24,
}

// t0 is the start of every workload's simulated time.
var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

// system is the simulated machine: the FrontierLike generation scaled to
// sz.nodes, seeded.
func system(seed int64, sz sizes) telemetry.SystemConfig {
	return telemetry.FrontierLike(seed).Scaled(sz.nodes)
}

// schedule simulates the job mix over the facility's default schedule
// window, so the facility and the generator share one schedule.
func schedule(seed int64, sys telemetry.SystemConfig) *jobsched.Schedule {
	sim := jobsched.New(jobsched.Config{Nodes: sys.Nodes, System: sys.Name,
		Workload: jobsched.WorkloadConfig{Seed: seed}})
	return sim.Run(t0.Add(-2*time.Hour), t0.Add(6*time.Hour))
}

// batch is one producer step: IngestBatch records bound for one topic,
// with their message keys prebuilt.
type batch struct {
	topic  string
	obs    []schema.Observation
	events []schema.Event
	keys   [][]byte
}

// encode builds the batch's messages: the prebuilt keys and freshly
// encoded values. It returns the encoded bytes too.
func (b *batch) encode() ([]stream.Message, int64) {
	msgs := make([]stream.Message, len(b.keys))
	var n int64
	for i := range msgs {
		var v []byte
		if b.events != nil {
			v = schema.EncodeRow(b.events[i].Row())
		} else {
			v = schema.EncodeRow(b.obs[i].Row())
		}
		msgs[i] = stream.Message{Key: b.keys[i], Value: v}
		n += int64(len(v))
	}
	return msgs, n
}

// ingestInput is one window of generated telemetry cut into batches in
// IngestWindowContext's order: each metric source in turn, then syslog.
type ingestInput struct {
	from, to   time.Time
	batches    []batch
	schedLogs  []schema.Event // scheduler events: log index only
	perTopic   map[string]int64
	obsCount   int64
	eventCount int64
	metrics    map[string][]string // source → metric names seen
	components map[string][]string // source → component names seen
}

func (in *ingestInput) records() int64 { return in.obsCount + in.eventCount }

func genIngest(gen *telemetry.Generator, sched *jobsched.Schedule, from, to time.Time,
	sources []telemetry.Source, withEvents bool, batchSize int) (*ingestInput, error) {
	in := &ingestInput{from: from, to: to, perTopic: map[string]int64{},
		metrics: map[string][]string{}, components: map[string][]string{}}
	for _, src := range sources {
		topic := core.BronzeTopic(src)
		var cur []schema.Observation
		seenM, seenC := map[string]bool{}, map[string]bool{}
		flush := func() {
			if len(cur) == 0 {
				return
			}
			keys := make([][]byte, len(cur))
			for i := range cur {
				keys[i] = []byte(cur[i].Component)
			}
			in.batches = append(in.batches, batch{topic: topic, obs: cur, keys: keys})
			cur = nil
		}
		err := gen.EmitSource(src, from, to, func(o schema.Observation) error {
			if cur == nil {
				cur = make([]schema.Observation, 0, min(batchSize, 4096))
			}
			cur = append(cur, o)
			if !seenM[o.Metric] {
				seenM[o.Metric] = true
				in.metrics[string(src)] = append(in.metrics[string(src)], o.Metric)
			}
			if !seenC[o.Component] {
				seenC[o.Component] = true
				in.components[string(src)] = append(in.components[string(src)], o.Component)
			}
			in.obsCount++
			in.perTopic[topic]++
			if len(cur) == batchSize {
				flush()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", src, err)
		}
		flush()
		sort.Strings(in.metrics[string(src)])
		sort.Strings(in.components[string(src)])
	}
	if !withEvents {
		return in, nil
	}
	topic := core.BronzeTopic(telemetry.SourceSyslog)
	var cur []schema.Event
	flush := func() {
		if len(cur) == 0 {
			return
		}
		keys := make([][]byte, len(cur))
		for i := range cur {
			keys[i] = []byte(cur[i].Host)
		}
		in.batches = append(in.batches, batch{topic: topic, events: cur, keys: keys})
		cur = nil
	}
	err := gen.EmitEvents(from, to, func(e schema.Event) error {
		cur = append(cur, e)
		in.eventCount++
		in.perTopic[topic]++
		if len(cur) == batchSize {
			flush()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generate syslog: %w", err)
	}
	flush()
	for _, e := range sched.Events() {
		if !e.Ts.Before(from) && e.Ts.Before(to) {
			in.schedLogs = append(in.schedLogs, e)
			in.eventCount++
		}
	}
	return in, nil
}

// shape is one query of the dashboard mix.
type shape struct {
	panel bool // a recent, narrow panel; otherwise a wide history query
	q     tsdb.Query
	topN  int // > 0: TopN over components instead of Run
}

func (s shape) String() string {
	kind := "history"
	if s.panel {
		kind = "panel"
	}
	return fmt.Sprintf("%s %v..%v f=%v g=%v gran=%s agg=%d topn=%d", kind,
		s.q.From.Format("15:04:05"), s.q.To.Format("15:04:05"), s.q.Filters, s.q.GroupBy, s.q.Granularity, s.q.Agg, s.topN)
}

var aggs = []tsdb.AggKind{tsdb.AggAvg, tsdb.AggSum, tsdb.AggMin, tsdb.AggMax, tsdb.AggCount}

// dashboardShapes builds the pipeline workloads' query mix over the
// ingested window. Panels: every 4th the system's total power, the
// others one node's power_temp metric, over the window's last 5 minutes
// at 15 s. History, over the whole window at 1 minute, in a fixed
// rotation of five kinds: one perf_counters metric grouped by component
// (twice), a top-10 of components by one perf_counters metric, every
// perf_counters metric of the system, and one metric system-wide. The
// seed picks the nodes, metrics and aggregations; the kinds and windows
// are fixed, so every seed costs about the same.
func dashboardShapes(rng *rand.Rand, in *ingestInput, nPanel, nHist int) (panels, hist []shape) {
	nodes := in.components[string(telemetry.SourcePowerTemp)]
	ptMetrics := in.metrics[string(telemetry.SourcePowerTemp)]
	perf := in.metrics[string(telemetry.SourcePerfCounters)]
	back := 5 * time.Minute
	if span := in.to.Sub(in.from); back > span {
		back = span
	}
	for len(panels) < nPanel {
		q := tsdb.Query{From: in.to.Add(-back), To: in.to, Granularity: 15 * time.Second}
		if len(panels)%4 == 0 {
			q.Filters = map[string][]string{tsdb.DimMetric: {"node_power_w"}}
			q.Agg = tsdb.AggSum
		} else {
			q.Filters = map[string][]string{
				tsdb.DimComponent: {nodes[rng.Intn(len(nodes))]},
				tsdb.DimMetric:    {ptMetrics[rng.Intn(len(ptMetrics))]},
			}
			q.Agg = aggs[rng.Intn(2)*3] // avg or max
		}
		panels = append(panels, shape{panel: true, q: q})
	}
	for len(hist) < nHist {
		q := tsdb.Query{From: in.from, To: in.to, Granularity: time.Minute, Agg: aggs[rng.Intn(len(aggs))],
			Filters: map[string][]string{tsdb.DimMetric: {perf[rng.Intn(len(perf))]}}}
		s := shape{q: q}
		switch len(hist) % 5 {
		case 0, 1:
			s.q.GroupBy = []string{tsdb.DimComponent}
		case 2:
			s.topN = 10
			s.q.Agg = tsdb.AggAvg
		case 3:
			s.q.Filters = map[string][]string{tsdb.DimSource: {string(telemetry.SourcePerfCounters)}}
			s.q.GroupBy = []string{tsdb.DimMetric}
		}
		hist = append(hist, s)
	}
	return panels, hist
}

// mix draws one round's query sequence: panels and history queries
// interleaved at random, panels from the small set, history from the
// large one.
func mix(rng *rand.Rand, panels, hist []shape, nPanel, nHist int) []int {
	// Indexes: [0, len(panels)) are panels, the rest history shapes.
	seq := make([]int, 0, nPanel+nHist)
	for i := 0; i < nPanel; i++ {
		seq = append(seq, rng.Intn(len(panels)))
	}
	for i := 0; i < nHist; i++ {
		seq = append(seq, len(panels)+i%len(hist))
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}
