package main

import (
	"fmt"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// ingestCalls are the layer entry points one producer step drives. The
// no-op set measures what the harness loop itself costs.
type ingestCalls struct {
	encode      bool
	publishName string
	publish     func(topic string, msgs []stream.Message) error
	insertName  string
	insert      func(obs []schema.Observation) error
	index       func(e schema.Event) // nil: no log index on this path
}

var noopCalls = ingestCalls{
	publishName: "bench.noop", publish: func(string, []stream.Message) error { return nil },
	insertName: "bench.noop", insert: func([]schema.Observation) error { return nil },
}

// produced is one producer pass's outcome.
type produced struct {
	failed int64 // batches that returned an error
	first  error
	bytes  int64 // encoded bronze bytes published
}

// produce runs the closed-loop producer over every batch: encode →
// publish → insert (syslog: index → encode → publish), recording each
// batch's latency from encode start to the last ack.
func produce(ln *lane, in *ingestInput, c ingestCalls, lat *latencies) produced {
	var p produced
	for bi := range in.batches {
		b := &in.batches[bi]
		req := int64(bi)
		t0 := time.Now()
		op := ln.begin("bench.batch", req)
		if b.events != nil && c.index != nil {
			s := ln.begin("logsearch.add", req)
			for _, e := range b.events {
				c.index(e)
			}
			ln.end(s)
		}
		var msgs []stream.Message
		if c.encode {
			s := ln.begin("schema.encode", req)
			var n int64
			msgs, n = b.encode()
			p.bytes += n
			ln.end(s)
		}
		s := ln.begin(c.publishName, req)
		err := c.publish(b.topic, msgs)
		ln.end(s)
		if err == nil && b.obs != nil {
			s = ln.begin(c.insertName, req)
			err = c.insert(b.obs)
			ln.end(s)
		}
		ln.end(op)
		lat.add(time.Since(t0))
		if err != nil {
			p.failed++
			if p.first == nil {
				p.first = err
			}
		}
	}
	if c.index != nil && len(in.schedLogs) > 0 {
		s := ln.begin("logsearch.add", -1)
		for _, e := range in.schedLogs {
			c.index(e)
		}
		ln.end(s)
	}
	return p
}

// harnessNsPerRec times the producer loop with no-op layer calls: the
// harness's own cost per record, which every ingest figure includes.
func harnessNsPerRec(in *ingestInput) float64 {
	var lat latencies
	ln := newLane("noop", false, time.Now())
	start := time.Now()
	produce(ln, in, noopCalls, &lat)
	return ratio(float64(time.Since(start).Nanoseconds()), float64(in.records()))
}

// answer is what one query returned, kept for the correctness checks.
type answer struct {
	frame *schema.Frame
	top   []tsdb.TopNEntry
}

// queryEngine is the read surface the query phase drives; cached says
// whether it has a result cache (the cluster's scatter-gather does not).
type queryEngine struct {
	cached           bool
	runName, topName string
	run              func(q tsdb.Query) (*schema.Frame, tsdb.QueryStats, error)
	topN             func(q tsdb.Query, dim string, n int) ([]tsdb.TopNEntry, error)
}

// queryTally accumulates the query phase's layer counters.
type queryTally struct {
	panelUs, histUs    []float64 // engine-reported wall time per query
	histCells          int64
	histRuns           int64 // history Runs that scanned (not cache hits)
	coldWall, scanWall time.Duration
	mergeWall          time.Duration
	allCells, allRuns  int64 // every Run that scanned
	hits               int64
	lookups            int64
}

// queryPhase runs one round's closed-loop query sequence. The first
// answer per distinct shape is kept for the checks.
func queryPhase(ln *lane, shapes []shape, seq []int, e queryEngine, round int,
	panelLat, histLat *pieces, t *queryTally, answers map[int]answer) (failed int64, first error) {
	for i, si := range seq {
		s := shapes[si]
		req := int64(i)
		t0 := time.Now()
		op := ln.begin("bench.query", req)
		var a answer
		var st tsdb.QueryStats
		var err error
		if s.topN > 0 {
			sp := ln.begin(e.topName, req)
			a.top, err = e.topN(s.q, tsdb.DimComponent, s.topN)
			ln.end(sp)
		} else {
			sp := ln.begin(e.runName, req)
			a.frame, st, err = e.run(s.q)
			ln.end(sp)
		}
		ln.end(op)
		d := time.Since(t0)
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
			continue
		}
		if s.panel {
			panelLat.add(round, d)
		} else {
			histLat.add(round, d)
		}
		if s.topN == 0 {
			if e.cached {
				t.lookups++
			}
			if st.CacheHit {
				t.hits++
			}
			if !st.CacheHit {
				t.allRuns++
				t.allCells += st.CellsScanned
			}
			us := float64(st.TotalWall) / float64(time.Microsecond)
			if s.panel {
				t.panelUs = append(t.panelUs, us)
			} else {
				t.histUs = append(t.histUs, us)
				if !st.CacheHit {
					t.histRuns++
					t.histCells += st.CellsScanned
					t.coldWall += st.ColdWall
					t.scanWall += st.ScanWall
					t.mergeWall += st.MergeWall
				}
			}
		}
		if _, seen := answers[si]; !seen {
			answers[si] = a
		}
	}
	return failed, first
}

// sameTop reports whether two top-N answers are identical.
func sameTop(a, b []tsdb.TopNEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rounds collects per-round figures of a pipeline workload.
type rounds struct {
	n                       int
	setup, ingestRate, heap []float64
	batchLat                pieces // one part per round
	panelLat, histLat       pieces
	cost                    []float64 // timed wall per round, seconds
	gcFrac                  []float64
}

// summary is the latency stamp: sample counts and percentiles per class.
func (r *rounds) summary() map[string]map[string]float64 {
	return map[string]map[string]float64{
		"ingest_batch": r.batchLat.all().summary(), "panel": r.panelLat.all().summary(), "history": r.histLat.all().summary()}
}

// e2e fills the end-to-end metrics: medians over rounds, of rates,
// set-up, heap and each round's latency percentiles.
func (r *rounds) e2e(m map[string]float64) {
	m["setup_s"] = median(r.setup)
	m["ingest_rec_per_s"] = median(r.ingestRate)
	m["ingest_batch_p50_ms"] = r.batchLat.pct(0.50)
	m["panel_p50_ms"] = r.panelLat.pct(0.50)
	m["panel_p90_ms"] = r.panelLat.pct(0.90)
	m["history_p50_ms"] = r.histLat.pct(0.50)
	m["history_p90_ms"] = r.histLat.pct(0.90)
	m["live_heap_mb"] = median(r.heap)
	m[costKey] = median(r.cost)
	m["runtime.gc_cpu_frac"] = median(r.gcFrac)
}

// metrics fills the query-engine layer metrics from the tally.
func (t *queryTally) metrics(m map[string]float64) {
	m["tsdb.query_us_p50_panel"] = median(t.panelUs)
	m["tsdb.query_us_p50_history"] = median(t.histUs)
	m["tsdb.cache_hit_ratio"] = ratio(float64(t.hits), float64(t.lookups))
	m["tsdb.cache_lookups"] = float64(t.lookups)
	m["tsdb.cells_scanned_per_query"] = ratio(float64(t.histCells), float64(t.histRuns))
	m["tsdb.cold_wall_ms"] = ratio(ms(t.coldWall), float64(t.histRuns))
	m["tsdb.scan_wall_ms"] = ratio(ms(t.scanWall), float64(t.histRuns))
	m["tsdb.merge_wall_ms"] = ratio(ms(t.mergeWall), float64(t.histRuns))
}

// paperLine restates ingest capacity in the paper's unit, for
// information only: this host's records per second times the measured
// bronze bytes per record, as TB per day.
func paperLine(recPerS, bytesPerRec float64) string {
	tb := recPerS * bytesPerRec * 86400 / 1e12
	return fmt.Sprintf("paper units: ingest capacity %.3f TB/day on this host (%.0f rec/s × %.1f B/rec); "+
		"the paper reports 4.2-4.5 TB/day landed, EXPERIMENTS.md 4.31 TB/day generated at full scale", tb, recPerS, bytesPerRec)
}
