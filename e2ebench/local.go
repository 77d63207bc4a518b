package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"odakit/internal/core"
	"odakit/internal/cq"
	"odakit/internal/jobsched"
	"odakit/internal/medallion"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// pipeline_local: the medallion journey on a one-node facility. Each
// round builds a fresh facility (set-up), then times three phases in
// sequence on one producer goroutine while a second runs the CQ pump:
//
//	ingest   encode → Broker.PublishBatch → Lake.InsertBatch per batch
//	         (syslog: Logs.Add → encode → publish), the CQ pump beside
//	         it, Pump.Drain after the last ack
//	refine   DrainSilver for every metric source, then BuildGold(power_temp)
//	query    the dashboard mix against Lake.RunWithStats / TopN
//
// and then checks every output against references built from the inputs.

// viewSpecs are the four standing queries. Their answers do not depend
// on the order cells are folded in — max, min, count, or an average whose
// every output value folds the cells of one series in time order — so a
// view over the live stream must equal the live LAKE's answer for the
// same window bit for bit.
func viewSpecs() []cq.Spec {
	return []cq.Spec{
		{Name: "node-power-max", Filters: map[string][]string{tsdb.DimMetric: {"node_power_w"}},
			GroupBy: []string{tsdb.DimComponent}, Granularity: time.Minute, Agg: tsdb.AggMax, Window: 10 * time.Minute},
		{Name: "records-per-source", GroupBy: []string{tsdb.DimSource}, Granularity: 15 * time.Second,
			Agg: tsdb.AggCount, Window: 5 * time.Minute, Kind: cq.WindowTumbling},
		{Name: "gpu-min", Filters: map[string][]string{tsdb.DimSource: {string(telemetry.SourceGPU)}},
			GroupBy: []string{tsdb.DimMetric}, Granularity: time.Minute, Agg: tsdb.AggMin, Window: 10 * time.Minute},
		{Name: "node-power-avg", Filters: map[string][]string{tsdb.DimMetric: {"node_power_w"}},
			GroupBy: []string{tsdb.DimComponent}, Granularity: time.Minute, Agg: tsdb.AggAvg,
			Window: 5 * time.Minute},
	}
}

func viewQuery(v *cq.View, info cq.WindowInfo) tsdb.Query {
	return tsdb.Query{From: info.From, To: info.To, Filters: v.Spec.Filters, GroupBy: v.Spec.GroupBy,
		Granularity: v.Spec.Granularity, Agg: v.Spec.Agg}
}

// refineExpect is what the Silver and Gold stages must produce, computed
// from the inputs by the batch path.
type refineExpect struct {
	silverRows int64
	profiles   int
}

// expectRefine counts the Silver rows the inputs imply — one per
// (15 s window, system, component) of every metric source — and runs the
// batch Bronze→Silver→Gold path over power_temp for the profile count.
func expectRefine(in *ingestInput, sched *jobsched.Schedule, window time.Duration) (refineExpect, error) {
	var e refineExpect
	type key struct {
		w         int64
		sys, comp string
	}
	seen := map[string]map[key]bool{}
	pt := schema.NewFrame(schema.ObservationSchema)
	for _, b := range in.batches {
		if b.obs == nil {
			continue
		}
		m := seen[b.topic]
		if m == nil {
			m = map[key]bool{}
			seen[b.topic] = m
		}
		for _, o := range b.obs {
			m[key{sproc.TumbleTime(o.Ts, window).UnixNano(), o.System, o.Component}] = true
			if b.topic == core.BronzeTopic(telemetry.SourcePowerTemp) {
				if err := pt.AppendRow(o.Row()); err != nil {
					return e, err
				}
			}
		}
	}
	for _, m := range seen {
		e.silverRows += int64(len(m))
	}
	silver, err := medallion.SilverizeBatch(pt, medallion.SilverizeConfig{Window: window})
	if err != nil {
		return e, err
	}
	silver, err = medallion.Contextualize(silver, sched)
	if err != nil {
		return e, err
	}
	profiles, err := medallion.ExtractJobProfiles(silver, "node_power_w", sched, 32)
	if err != nil {
		return e, err
	}
	e.profiles = len(profiles)
	return e, nil
}

// setupLocal builds a one-node facility with the four CQ views
// registered and a pump over every metric topic.
func setupLocal(sys telemetry.SystemConfig, sched *jobsched.Schedule, seed int64) (*core.Facility, []*cq.View, *cq.Pump, error) {
	f, err := core.NewFacility(core.Options{System: sys, Schedule: sched, WorkloadSeed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	views := make([]*cq.View, 0, 4)
	for _, sp := range viewSpecs() {
		v, err := f.CQ.Register(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		views = append(views, v)
	}
	pump, err := f.NewCQPump("")
	if err != nil {
		return nil, nil, nil, err
	}
	return f, views, pump, nil
}

func runLocal(cfg config, o *outcome) error {
	sz := cfg.size
	sys := system(cfg.seed, sz)
	sched := schedule(cfg.seed, sys)
	gen := telemetry.NewGenerator(sys, sched)
	in, err := genIngest(gen, sched, t0, t0.Add(time.Duration(sz.localMinutes)*time.Minute),
		telemetry.MetricSources, true, sz.localBatch)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	panels, hist := dashboardShapes(rng, in, sz.panelShapes, sz.historyShapes)
	shapes := append(append([]shape(nil), panels...), hist...)
	expect, err := expectRefine(in, sched, 15*time.Second)
	if err != nil {
		return err
	}
	base := liveHeapMB()

	lg := newLedger(cfg.trace)
	var r rounds
	var qt queryTally
	var catchup []float64
	var refineRate []float64
	var silverIn, silverRows, silverBytes, windows int64
	var viewReadUs []float64
	var pumpNs float64
	var bronze int64 // encoded bytes per round
	end := deadline(cfg)
	for r.n < sz.minRounds || time.Now().Before(end) {
		seq := mix(rng, panels, hist, sz.panels, sz.history)

		// Set up sz.setups times and keep the last: set-up is short, so
		// its median needs the samples.
		var f *core.Facility
		var views []*cq.View
		var pump *cq.Pump
		for i := 0; i < sz.setups; i++ {
			if f != nil {
				f.Close()
			}
			t := time.Now()
			if f, views, pump, err = setupLocal(sys, sched, cfg.seed); err != nil {
				return err
			}
			r.setup = append(r.setup, time.Since(t).Seconds())
		}

		// Timed phase.
		prod, pl := lg.lane(fmt.Sprintf("producer/%d", r.n)), lg.lane(fmt.Sprintf("pump/%d", r.n))
		gcm := startGC()
		start := time.Now()
		root := prod.begin("lane", 0)
		pctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		var pumpErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			pumpErr = pumpLoop(pctx, pl, pump)
		}()
		var batchLat latencies
		pr := produce(prod, in, ingestCalls{
			encode:      true,
			publishName: "stream.publish",
			publish: func(topic string, msgs []stream.Message) error {
				_, err := f.Broker.PublishBatch(topic, msgs)
				return err
			},
			insertName: "tsdb.insert", insert: f.Lake.InsertBatch,
			index: f.Logs.Add,
		}, &batchLat)
		r.batchLat = append(r.batchLat, batchLat)
		cancel()
		wg.Wait()
		s := prod.begin("cq.drain", 0)
		tc := time.Now()
		derr := pump.Drain(context.Background())
		catchup = append(catchup, ms(time.Since(tc)))
		prod.end(s)
		ingestWall := time.Since(start)
		r.ingestRate = append(r.ingestRate, float64(in.records())/ingestWall.Seconds())
		o.attempted += int64(len(in.batches))
		o.failed += pr.failed
		bronze = pr.bytes
		for _, e := range []error{pr.first, pumpErr, derr} {
			if e != nil {
				o.problem("ingest: %v", e)
			}
		}

		tr := time.Now()
		var rowsOut int64
		for _, src := range telemetry.MetricSources {
			s := prod.begin("sproc.drain_silver", 0)
			m, err := f.DrainSilver(context.Background(), core.SilverPipelineConfig{Source: src})
			prod.end(s)
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("silver %s: %v", src, err)
				continue
			}
			silverIn += m.RecordsIn
			rowsOut += m.RowsOut
			windows += m.WindowsEmitted
		}
		s = prod.begin("medallion.build_gold", 0)
		gold, gerr := f.BuildGold(telemetry.SourcePowerTemp, "node_power_w", 32)
		prod.end(s)
		o.attempted++
		refineRate = append(refineRate, float64(in.obsCount)/time.Since(tr).Seconds())

		answers := map[int]answer{}
		qf, qerr := queryPhase(prod, shapes, seq, queryEngine{
			cached: true, runName: "tsdb.query", topName: "tsdb.topn",
			run: f.Lake.RunWithStats, topN: f.Lake.TopN,
		}, r.n, &r.panelLat, &r.histLat, &qt, answers)
		o.attempted += int64(len(seq))
		o.failed += qf
		if qerr != nil {
			o.problem("query: %v", qerr)
		}
		prod.end(root)
		r.cost = append(r.cost, time.Since(start).Seconds())
		r.gcFrac = append(r.gcFrac, gcm.since())
		r.heap = append(r.heap, liveHeapMB()-base)

		// Checks.
		if gerr != nil {
			o.failed++
			o.problem("gold: %v", gerr)
		} else if len(gold.Profiles) != expect.profiles {
			o.problem("gold: %d job profiles, want %d", len(gold.Profiles), expect.profiles)
		}
		if rowsOut != expect.silverRows {
			o.problem("silver: %d rows, want %d", rowsOut, expect.silverRows)
		}
		silverRows += rowsOut
		for _, src := range telemetry.MetricSources {
			if d, err := f.Datasets.Get(string(src) + "_silver"); err == nil {
				silverBytes += d.Bytes
			}
		}
		checkLocal(f, in, views, shapes, answers, o, &viewReadUs)
		if cfg.trace && r.n == 0 {
			pumpNs, err = standalonePump(f, in)
			if err != nil {
				o.problem("standalone pump: %v", err)
			}
		}
		f.Close()
		r.n++
	}

	m := o.metrics
	r.e2e(m)
	a := lg.summarize()
	published := float64(in.obsCount+in.eventCount-int64(len(in.schedLogs))) * float64(r.n)
	m["schema.encode_ns_per_rec"] = ratio(float64(a.byName["schema.encode"]), published)
	m["schema.bytes_per_rec"] = ratio(float64(bronze), published/float64(r.n))
	m["stream.publish_ns_per_rec"] = ratio(float64(a.byName["stream.publish"]), published)
	m["tsdb.insert_ns_per_rec"] = ratio(float64(a.byName["tsdb.insert"]), float64(in.obsCount)*float64(r.n))
	m["logsearch.add_ns_per_event"] = ratio(float64(a.byName["logsearch.add"]), float64(in.eventCount)*float64(r.n))
	m["cq.catchup_ms"] = median(catchup)
	m["cq.pump_ns_per_rec"] = pumpNs
	m["cq.read_us_p50"] = median(viewReadUs)
	m["sproc.drain_ns_per_rec"] = ratio(float64(a.byName["sproc.drain_silver"]), float64(silverIn))
	m["sproc.records_per_window"] = ratio(float64(silverIn), float64(windows))
	m["columnar.silver_bytes_per_row"] = ratio(float64(silverBytes), float64(silverRows))
	m["medallion.gold_build_ms"] = a.meanNs("medallion.build_gold") / 1e6
	m["medallion.refine_rec_per_s"] = median(refineRate)
	qt.metrics(m)
	m["trace.unattributed_frac"] = a.unattributedFrac()
	if cfg.trace {
		m["bench.driver_ns_per_rec"] = harnessNsPerRec(in)
		if err := lg.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return err
		}
		o.notes = append(o.notes, a.table()...)
	}
	o.stamp["records_per_round"] = in.records()
	o.stamp["bronze_bytes_per_round"] = bronze
	o.stamp["window"] = fmt.Sprintf("%s..%s", in.from.Format(time.RFC3339), in.to.Format(time.RFC3339))
	o.stamp["rounds"] = r.n
	o.stamp["setups_per_round"] = sz.setups
	o.stamp["ingest_batch"] = sz.localBatch
	o.stamp["wal_flush_policy"] = "none: the one-node facility keeps STREAM and LAKE in memory"
	o.stamp["latency_ms"] = r.summary()
	o.notes = append(o.notes, paperLine(m["ingest_rec_per_s"], m["schema.bytes_per_rec"]))
	return nil
}

// pumpIdle is how long the pump waits after catching up, as Pump.Run
// does between empty polls.
const pumpIdle = 5 * time.Millisecond

// pumpLoop is Pump.Run spelled out with Pump.Drain: drain until caught
// up, wait pumpIdle, repeat until ctx is done. The wait is a bench.idle
// span, so the ledger books only the pump's work to cq.
func pumpLoop(ctx context.Context, ln *lane, pump *cq.Pump) error {
	root := ln.begin("lane", 0)
	defer ln.end(root)
	for {
		s := ln.begin("cq.drain", 0)
		err := pump.Drain(ctx)
		ln.end(s)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		s = ln.begin("bench.idle", 0)
		select {
		case <-ctx.Done():
		case <-time.After(pumpIdle):
		}
		ln.end(s)
		if ctx.Err() != nil {
			return nil
		}
	}
}

// checkLocal verifies one round: LAKE cell totals and broker end offsets
// against the generated counts, every CQ view against the LAKE, and
// every distinct query answer against the serial reference engine.
func checkLocal(f *core.Facility, in *ingestInput, views []*cq.View, shapes []shape, answers map[int]answer,
	o *outcome, readUs *[]float64) {
	if got := f.Lake.Stats().RawIngested; got != in.obsCount {
		o.problem("lake holds %d observations, generated %d", got, in.obsCount)
	}
	for topic, want := range in.perTopic {
		parts, err := f.Broker.Partitions(topic)
		if err != nil {
			o.problem("partitions %s: %v", topic, err)
			continue
		}
		var got int64
		for p := 0; p < parts; p++ {
			end, err := f.Broker.EndOffset(topic, p)
			if err != nil {
				o.problem("end offset %s/%d: %v", topic, p, err)
			}
			got += end
		}
		if got != want {
			o.problem("topic %s end offsets sum to %d, published %d", topic, got, want)
		}
	}
	for _, v := range views {
		t := time.Now()
		fr, info := v.Read()
		*readUs = append(*readUs, float64(time.Since(t))/float64(time.Microsecond))
		want, err := f.Lake.Run(viewQuery(v, info))
		if err != nil {
			o.problem("view %s reference: %v", v.Spec.Name, err)
			continue
		}
		if fr.Len() == 0 || !fr.Equal(want) {
			o.problem("view %s: %d rows differ from Lake.Run (%d rows)", v.Spec.Name, fr.Len(), want.Len())
		}
	}
	idx := make([]int, 0, len(answers))
	for i := range answers {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		s, a := shapes[i], answers[i]
		if s.topN > 0 {
			want, err := serialTopN(f.Lake, s.q, s.topN)
			if err != nil || !sameTop(a.top, want) {
				o.problem("query %s: top-N differs from the serial reference (%v)", s, err)
			}
			continue
		}
		want, err := f.Lake.RunSerial(s.q)
		if err != nil || !a.frame.Equal(want) {
			o.problem("query %s: differs from the serial reference (%v)", s, err)
		}
	}
}

// serialTopN derives a top-N from the serial reference engine: group by
// component over the whole range, order by value descending then name.
func serialTopN(db *tsdb.DB, q tsdb.Query, n int) ([]tsdb.TopNEntry, error) {
	q.GroupBy = []string{tsdb.DimComponent}
	q.Granularity = 0
	fr, err := db.RunSerial(q)
	if err != nil {
		return nil, err
	}
	out := make([]tsdb.TopNEntry, 0, fr.Len())
	for i := 0; i < fr.Len(); i++ {
		row := fr.Row(i)
		out = append(out, tsdb.TopNEntry{Dim: row[1].StrVal(), Value: row[2].FloatVal()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Dim < out[j].Dim
	})
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// standalonePump drains the round's bronze topics into a fresh engine
// holding the same four views, alone on the machine: the pump's own
// cost per record, without the producer beside it.
func standalonePump(f *core.Facility, in *ingestInput) (float64, error) {
	eng := cq.NewEngine(cq.Config{RollupInterval: f.Opts.SilverWindow})
	for _, sp := range viewSpecs() {
		if _, err := eng.Register(sp); err != nil {
			return 0, err
		}
	}
	topics := make([]string, 0, len(telemetry.MetricSources))
	for _, src := range telemetry.MetricSources {
		topics = append(topics, core.BronzeTopic(src))
	}
	p, err := cq.NewPump(eng, f.Broker, cq.PumpConfig{Topics: topics})
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := p.Drain(context.Background()); err != nil {
		return 0, err
	}
	return ratio(float64(time.Since(t).Nanoseconds()), float64(p.Metrics().Applied)), nil
}
