package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"odakit/internal/core"
	"odakit/internal/cq"
	"odakit/internal/gateway"
	"odakit/internal/httpapi"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// query_serving: dashboards reading beside writes. Set-up preloads
// history, ages the older LAKE segments into the OCEAN cold tier,
// registers the CQ views and drains the pump, and fronts httpapi with a
// two-tenant gateway. The timed phase then runs two load goroutines for
// --seconds, every request in process through Gateway.ServeHTTP:
//
//	interactive  open loop at a fixed rate: hot per-node and system panels
//	             (lake/query over the last minutes) and CQ view reads; every
//	             10th slot is a 64-record power_temp write just past the
//	             data's end (encode → publish → insert → Pump.Drain), which
//	             invalidates the result cache
//	analyst      closed loop: wide historical lake/query across the cold
//	             tier, lake/topn and logs/search, drawn from 4× the result
//	             cache's capacity
//
// Every response must be 2xx, and every history response (its window
// ends before the writes begin) must equal the reference computed in
// set-up, byte for byte.

const (
	trickleEvery = 10 // every n-th interactive slot is a write
	trickleSize  = 64
	coldAge      = time.Hour // ApplyRetention's LAKE age: older segments go cold
)

type laneKey struct{}

// timedAPI wraps httpapi.Server with the httpapi span, read from the
// lane the request carries in its context.
type timedAPI struct{ next http.Handler }

func (t timedAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ln, _ := r.Context().Value(laneKey{}).(*lane)
	s := ln.begin("httpapi.serve", -1)
	t.next.ServeHTTP(w, r)
	ln.end(s)
	if v := w.Header().Get("X-ODA-Query-Micros"); v != "" && s >= 0 {
		if us, err := strconv.ParseInt(v, 10, 64); err == nil {
			ln.inner(s, "tsdb.query", time.Duration(us)*time.Microsecond)
		}
	}
}

// servingInput is everything the serving workload sends, generated up
// front.
type servingInput struct {
	older    *ingestInput                 // gpu + facility + syslog before the hot window: LAKE and log index only
	recent   *ingestInput                 // the hot window, power_temp too: published, inserted, indexed
	trickles *ingestInput                 // power_temp past the end, 64-record batches
	end      time.Time                    // end of the preloaded data
	panels   []string                     // panel URLs (lake/query), a small set
	history  []histShape                  // analyst shapes, ≥ 4× the result cache
	refs     map[string][sha256.Size]byte // history URL → digest of its reference answer
}

func servingInputs(cfg config) (*servingInput, *core.Options, error) {
	sz := cfg.size
	sys := system(cfg.seed, sz)
	sched := schedule(cfg.seed, sys)
	gen := telemetry.NewGenerator(sys, sched)
	end := t0.Add(sz.servePreload)
	hotFrom := end.Add(-sz.serveHot)
	older, err := genIngest(gen, sched, t0, hotFrom,
		[]telemetry.Source{telemetry.SourceGPU, telemetry.SourceFacility}, true, 512)
	if err != nil {
		return nil, nil, err
	}
	recent, err := genIngest(gen, sched, hotFrom, end,
		[]telemetry.Source{telemetry.SourceGPU, telemetry.SourceFacility, telemetry.SourcePowerTemp}, true, 512)
	if err != nil {
		return nil, nil, err
	}
	// Enough writes for the whole run at the fixed rate, plus a margin.
	need := int(math.Ceil(sz.serveRate*cfg.seconds/trickleEvery)) + 8
	perSec := float64(sys.Nodes * 10) // power_temp: 10 metrics per node at 1 Hz
	span := time.Duration(math.Ceil(float64(need*trickleSize)/perSec/0.98)+2) * time.Second
	tr, err := genIngest(gen, sched, end, end.Add(span),
		[]telemetry.Source{telemetry.SourcePowerTemp}, false, trickleSize)
	if err != nil {
		return nil, nil, err
	}
	in := &servingInput{older: older, recent: recent, trickles: tr, end: end}
	rng := rand.New(rand.NewSource(cfg.seed))
	in.panels = panelURLs(rng, in, sz.panelShapes, span)
	in.history = historyShapes(rng, in, sz.historyShapes)
	return in, &core.Options{System: sys, Schedule: sched, WorkloadSeed: cfg.seed}, nil
}

func rfc(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// The mix's structure is fixed and only its values come from the seed:
// which node, metric, window offset and aggregation a shape names. Kinds
// come in fixed proportions and every shape costs about the same as the
// others of its kind, so runs with different seeds do the same work.

// panelURLs: every 4th shape the system's node power (sum, avg, max or
// min; 15 s or 30 s), the others one node's power_temp metric, each over
// the last 10 minutes and on through the window the writes fill.
func panelURLs(rng *rand.Rand, in *servingInput, n int, span time.Duration) []string {
	nodes := in.recent.components[string(telemetry.SourcePowerTemp)]
	metrics := in.recent.metrics[string(telemetry.SourcePowerTemp)]
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		v := url.Values{"from": {rfc(in.end.Add(-10 * time.Minute))}, "to": {rfc(in.end.Add(span))}, "granularity": {"15s"}}
		if i := len(out); i%4 == 0 {
			v.Set("metric", "node_power_w")
			v.Set("agg", []string{"sum", "avg", "max", "min"}[(i/4)%4])
			v.Set("granularity", []string{"15s", "30s"}[(i/16)%2])
		} else {
			v.Set("metric", metrics[rng.Intn(len(metrics))])
			v.Set("component", nodes[rng.Intn(len(nodes))])
			v.Set("agg", []string{"avg", "max"}[rng.Intn(2)])
		}
		u := "/api/v1/lake/query?" + v.Encode()
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// histShape is one analyst request; q is set for lake/query shapes.
type histShape struct {
	url string
	q   *tsdb.Query
}

// historyShapes: of every 10 shapes, 7 are hour-long gpu lake/query
// windows starting in the preload's first half (mostly cold) — grouped by
// component at 5 or 15 minutes, filtered to one GPU at 1 or 5 minutes,
// or system-wide at 1, 5 or 15 minutes — 2 are lake/topn over such a
// window, and 1 is a logs/search over half an hour of the last hour (the
// log index keeps only that after retention). Every window ends before
// the data's end, so the writes never change a history answer.
func historyShapes(rng *rand.Rand, in *servingInput, n int) []histShape {
	metrics := in.older.metrics[string(telemetry.SourceGPU)]
	gpus := in.older.components[string(telemetry.SourceGPU)]
	span := in.end.Sub(t0)
	aggNames := []string{"avg", "sum", "min", "max", "count"}
	seen := map[string]bool{}
	var out []histShape
	for i := 0; len(out) < n; i++ {
		from := t0.Add(time.Duration(rng.Int63n(int64(span / 2))).Truncate(time.Minute))
		v := url.Values{"from": {rfc(from)}, "to": {rfc(from.Add(time.Hour))}}
		metric := metrics[rng.Intn(len(metrics))]
		var h histShape
		switch k := len(out) % 10; {
		case k < 7:
			agg := rng.Intn(len(aggNames))
			gran := []time.Duration{5 * time.Minute, 15 * time.Minute, time.Minute, 5 * time.Minute,
				time.Minute, 5 * time.Minute, 15 * time.Minute}[k]
			q := &tsdb.Query{From: from, To: from.Add(time.Hour), Agg: aggs[agg], Granularity: gran,
				Filters: map[string][]string{tsdb.DimMetric: {metric}}}
			v.Set("metric", metric)
			v.Set("agg", aggNames[agg])
			v.Set("granularity", gran.String())
			switch {
			case k < 2:
				v.Set("groupby", tsdb.DimComponent)
				q.GroupBy = []string{tsdb.DimComponent}
			case k < 4:
				c := gpus[rng.Intn(len(gpus))]
				v.Set("component", c)
				q.Filters[tsdb.DimComponent] = []string{c}
			}
			h = histShape{url: "/api/v1/lake/query?" + v.Encode(), q: q}
		case k < 9:
			v.Set("metric", metric)
			v.Set("n", "10")
			h.url = "/api/v1/lake/topn?" + v.Encode()
		default:
			lf := in.end.Add(-coldAge).Add(time.Duration(rng.Intn(30)) * time.Minute)
			v.Set("from", rfc(lf))
			v.Set("to", rfc(lf.Add(30*time.Minute)))
			v.Set("severity", []string{"error", "warn", "info"}[rng.Intn(3)])
			v.Set("limit", "100")
			h.url = "/api/v1/logs/search?" + v.Encode()
		}
		if !seen[h.url] {
			seen[h.url] = true
			out = append(out, h)
		}
	}
	return out
}

// server is one set-up's serving stack.
type server struct {
	f     *core.Facility
	pump  *cq.Pump
	gw    *gateway.Gateway
	api   http.Handler
	views []*cq.View
	// ingestRate is the hot window's records per second through encode,
	// publish, insert and the log index in this set-up.
	ingestRate float64
}

// setupServing builds the serving stack: history loaded into the LAKE
// and the log index, the hot window encoded, published, inserted and
// indexed, the older LAKE segments offloaded to the cold tier, the CQ
// views drained, and the gateway with its two tenants.
func setupServing(opts core.Options, in *servingInput) (*server, error) {
	f, err := core.NewFacility(opts)
	if err != nil {
		return nil, err
	}
	s := &server{f: f}
	calls := ingestCalls{
		encode: true, publishName: "stream.publish",
		publish: func(topic string, msgs []stream.Message) error {
			_, err := f.Broker.PublishBatch(topic, msgs)
			return err
		},
		insertName: "tsdb.insert", insert: f.Lake.InsertBatch, index: f.Logs.Add,
	}
	backfill := noopCalls
	backfill.insert, backfill.index = f.Lake.InsertBatch, f.Logs.Add
	off := newLane("setup", false, time.Now())
	var lat latencies
	if p := produce(off, in.older, backfill, &lat); p.first != nil {
		return nil, p.first
	}
	start := time.Now()
	if p := produce(off, in.recent, calls, &lat); p.first != nil {
		return nil, p.first
	}
	s.ingestRate = float64(in.recent.records()) / time.Since(start).Seconds()
	if _, err := f.ApplyRetention(in.end, coldAge); err != nil {
		return nil, err
	}
	for _, sp := range viewSpecs() {
		v, err := f.CQ.Register(sp)
		if err != nil {
			return nil, err
		}
		s.views = append(s.views, v)
	}
	if s.pump, err = f.NewCQPump(""); err != nil {
		return nil, err
	}
	if err := s.pump.Drain(context.Background()); err != nil {
		return nil, err
	}
	s.api = httpapi.New(f)
	s.gw = gateway.New(timedAPI{s.api}, gateway.Options{Registry: f.Obs, Slots: f.Lake.ScanSlotCap()})
	for _, t := range []gateway.TenantConfig{
		{Name: "dash", Priority: gateway.PriorityInteractive, RatePerSec: 1e6},
		{Name: "analyst", Priority: gateway.PriorityBatch, RatePerSec: 1e6, ScanCellsPerSec: 1e12},
	} {
		if err := s.gw.RegisterTenant(t); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func newRequest(ctx context.Context, tenant, target string) *http.Request {
	r := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
	r.Header.Set("X-ODA-Tenant", tenant)
	return r
}

// references answers every history shape once through httpapi, untimed,
// and keeps each answer's digest.
func references(api http.Handler, shapes []histShape) (map[string][sha256.Size]byte, error) {
	refs := make(map[string][sha256.Size]byte, len(shapes))
	for _, h := range shapes {
		u := h.url
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, newRequest(context.Background(), "", u))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %s: status %d: %s", u, rec.Code, rec.Body.String())
		}
		refs[u] = sha256.Sum256(rec.Body.Bytes())
	}
	return refs, nil
}

// slot kinds of the interactive schedule.
const (
	slotPanel = iota
	slotView
	slotWrite
)

// servePieces is how many equal slices of the timed phase the latency
// metrics take the median over.
const servePieces = 4

// part is the slice of the timed phase instant at falls in.
func (t *serveTally) part(at time.Time) int {
	i := int(int64(at.Sub(t.start)) * servePieces / int64(t.span))
	return min(max(i, 0), servePieces-1)
}

// serveTally is what the two load goroutines measured.
type serveTally struct {
	start                       time.Time     // the timed phase's start
	span                        time.Duration // its scheduled length
	panelLat, histLat, writeLat pieces        // one part per quarter of the phase
	writeBytes                  int64
	byRoute                     map[string]latencies // analyst latency per route
	late                        []float64            // ms behind schedule per slot
	queuedMax                   int
	catchup                     []float64 // ms per Pump.Drain after a write
	pumped                      time.Duration
	service                     []float64 // ms per request, send to completion
	viewUs, logsMs              []float64
	panelUs, histUs             []float64 // X-ODA-Query-Micros
	lookups, hits               int64
	histCells                   []float64
	attempted, failed           int64
	mismatched                  []string
}

func runServing(cfg config, o *outcome) error {
	sz := cfg.size
	base := liveHeapMB()
	in, opts, err := servingInputs(cfg)
	if err != nil {
		return err
	}
	var setups, rates []float64
	var srv *server
	for i := 0; i < sz.serveSetups; i++ {
		if srv != nil {
			srv.f.Close()
			srv = nil
		}
		t := time.Now()
		if srv, err = setupServing(*opts, in); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		rates = append(rates, srv.ingestRate)
	}
	defer srv.f.Close()
	// The preload is in the program now; drop the bench's copy so its
	// heap neither counts as the program's nor slows the collector.
	preloaded := in.older.obsCount + in.recent.obsCount
	o.stamp["preload"] = fmt.Sprintf("%s gpu+facility+syslog (%d records), the last %s also power_temp and published (%d records); LAKE segments older than %s offloaded to OCEAN",
		sz.servePreload, in.older.records()+in.recent.records(), sz.serveHot, in.recent.records(), coldAge)
	in.older, in.recent = nil, nil
	if in.refs, err = references(srv.api, in.history); err != nil {
		return err
	}

	lg := newLedger(cfg.trace)
	il, al := lg.lane("interactive"), lg.lane("analyst")
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	period := time.Duration(float64(time.Second) / sz.serveRate)
	slots := int(cfg.seconds * sz.serveRate)
	ictx := context.WithValue(context.Background(), laneKey{}, il)
	actx := context.WithValue(context.Background(), laneKey{}, al)
	// Of every 10 slots: 6 panels, 3 CQ view reads, 1 write. Panels and
	// views go round-robin; the analyst walks a seeded permutation of its
	// shapes, each once per cycle.
	kinds := make([]int, slots)
	reqs := make([]*http.Request, slots)
	var np, nv int
	for i := range kinds {
		switch p := i % trickleEvery; {
		case p == trickleEvery-1:
			kinds[i] = slotWrite
		case p >= 6:
			kinds[i] = slotView
			reqs[i] = newRequest(ictx, "dash", "/api/v1/cq/"+srv.views[nv%len(srv.views)].ID)
			nv++
		default:
			reqs[i] = newRequest(ictx, "dash", in.panels[np%len(in.panels)])
			np++
		}
	}
	areqs := make([]*http.Request, 0, 4*len(in.history))
	for len(areqs) < cap(areqs) {
		for _, j := range rng.Perm(len(in.history)) {
			areqs = append(areqs, newRequest(actx, "analyst", in.history[j].url))
		}
	}

	t := serveTally{start: time.Now(), span: time.Duration(slots) * period}
	gcm := startGC()
	var stop sync.WaitGroup
	done := make(chan struct{})
	at := serveTally{start: t.start, span: t.span}
	stop.Add(1)
	go func() {
		defer stop.Done()
		analyst(al, srv, areqs, in.refs, done, &at)
	}()
	interactive(il, srv, in, kinds, reqs, period, &t)
	close(done)
	stop.Wait()
	gcFrac := gcm.since()
	heap := liveHeapMB() - base

	t.merge(&at)
	o.attempted += t.attempted
	o.failed += t.failed
	for _, p := range t.mismatched {
		o.problem("%s", p)
	}
	writes := len(t.writeLat.all())
	checkServing(srv, preloaded, writes, o)

	m := o.metrics
	m["setup_s"] = median(setups)
	m["ingest_rec_per_s"] = median(rates)
	m["ingest_batch_p50_ms"] = t.writeLat.pct(0.50)
	m["panel_p50_ms"] = t.panelLat.pct(0.50)
	m["panel_p90_ms"] = t.panelLat.pct(0.90)
	m["history_p50_ms"] = t.histLat.pct(0.50)
	m["history_p90_ms"] = t.histLat.pct(0.90)
	m["live_heap_mb"] = heap
	m[costKey] = mean(t.service)
	m["runtime.gc_cpu_frac"] = gcFrac

	a := lg.summarize()
	written := float64(writes * trickleSize)
	m["schema.encode_ns_per_rec"] = ratio(float64(a.byName["schema.encode"]), written)
	m["schema.bytes_per_rec"] = ratio(float64(t.writeBytes), written)
	m["stream.publish_ns_per_rec"] = ratio(float64(a.byName["stream.publish"]), written)
	m["tsdb.insert_ns_per_rec"] = ratio(float64(a.byName["tsdb.insert"]), written)
	m["tsdb.query_us_p50_panel"] = median(t.panelUs)
	m["tsdb.query_us_p50_history"] = median(t.histUs)
	m["tsdb.cache_hit_ratio"] = ratio(float64(t.hits), float64(t.lookups))
	m["tsdb.cache_lookups"] = float64(t.lookups)
	m["tsdb.cells_scanned_per_query"] = mean(t.histCells)
	m["logsearch.search_ms_p50"] = median(t.logsMs)
	m["cq.catchup_ms"] = median(t.catchup)
	m["cq.pump_ns_per_rec"] = ratio(float64(t.pumped), written)
	m["cq.read_us_p50"] = median(t.viewUs)
	m["gateway.queued_max"] = float64(t.queuedMax)
	m["bench.generator_late_ms_p99"] = pct(t.late, 0.99)
	m["trace.unattributed_frac"] = a.unattributedFrac()
	if cfg.trace {
		gwSelf, apiSelf := selfTimes(lg)
		m["gateway.self_us_p50"] = median(gwSelf)
		m["httpapi.self_us_p50"] = median(apiSelf)
		coldProbe(srv, in, m)
		m["bench.driver_ns_per_rec"] = servingHarnessNs(reqs, kinds)
		if err := lg.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return err
		}
		o.notes = append(o.notes, a.table()...)
	}
	o.stamp["window"] = fmt.Sprintf("%s..%s", rfc(t0), rfc(in.end))
	o.stamp["interactive"] = fmt.Sprintf("open loop %.0f slots/s; of every %d slots 6 panels (%d shapes), 3 CQ view reads, 1 %d-record write",
		sz.serveRate, trickleEvery, len(in.panels), trickleSize)
	o.stamp["analyst"] = fmt.Sprintf("closed loop over %d history shapes (lake/query, lake/topn, logs/search)", len(in.history))
	o.stamp["setups"] = len(setups)
	o.stamp["ingest_rec_per_s"] = "the hot window's preload in each set-up: encode, publish, insert and log index, one goroutine; median over set-ups"
	o.stamp["wal_flush_policy"] = "none: the one-node facility keeps STREAM and LAKE in memory"
	o.stamp["latency_ms"] = map[string]map[string]float64{
		"ingest_batch": t.writeLat.all().summary(), "panel": t.panelLat.all().summary(), "history": t.histLat.all().summary()}
	for route, l := range t.byRoute {
		o.stamp["latency_ms"].(map[string]map[string]float64)["history "+route] = l.summary()
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func (t *serveTally) merge(a *serveTally) {
	t.histLat.merge(a.histLat)
	t.service = append(t.service, a.service...)
	t.logsMs = append(t.logsMs, a.logsMs...)
	t.histUs = append(t.histUs, a.histUs...)
	t.histCells = append(t.histCells, a.histCells...)
	t.lookups += a.lookups
	t.hits += a.hits
	t.attempted += a.attempted
	t.failed += a.failed
	t.mismatched = append(t.mismatched, a.mismatched...)
	t.byRoute = a.byRoute
}

// serve sends one request through the gateway and returns the recorder.
func serve(ln *lane, gw *gateway.Gateway, r *http.Request, id int64) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s := ln.begin("gateway.serve", id)
	gw.ServeHTTP(rec, r)
	ln.end(s)
	return rec
}

// engineStats reads the query-engine headers of a lake/query response.
func (t *serveTally) engineStats(rec *httptest.ResponseRecorder, panel bool) {
	h := rec.Header()
	v := h.Get("X-ODA-Query-Micros")
	if v == "" {
		return
	}
	us, _ := strconv.ParseFloat(v, 64)
	t.lookups++
	hit := h.Get("X-ODA-Query-Cache") == "hit"
	if hit {
		t.hits++
	}
	if panel {
		t.panelUs = append(t.panelUs, us)
		return
	}
	t.histUs = append(t.histUs, us)
	if !hit {
		cells, _ := strconv.ParseFloat(h.Get("X-ODA-Query-Cells-Scanned"), 64)
		t.histCells = append(t.histCells, cells)
	}
}

// interactive runs the open loop: slot i is due at start + i·period and
// its latency counts from then, so a stall delays every later slot. A
// backlog still unsent at half the run length past the schedule's end
// counts as failed requests, which bounds an overloaded run.
func interactive(ln *lane, srv *server, in *servingInput, kinds []int, reqs []*http.Request,
	period time.Duration, t *serveTally) {
	root := ln.begin("lane", 0)
	defer ln.end(root)
	next := 0 // next write batch
	start := t.start
	giveUp := start.Add(time.Duration(len(kinds)) * period * 3 / 2)
	for i, kind := range kinds {
		if time.Now().After(giveUp) {
			n := int64(len(kinds) - i)
			t.attempted += n
			t.failed += n
			t.mismatched = append(t.mismatched, fmt.Sprintf("%d interactive slots still unsent at %s: overloaded", n, giveUp.Sub(start)))
			return
		}
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			s := ln.begin("bench.idle", int64(i))
			time.Sleep(wait)
			ln.end(s)
		}
		sent := time.Now()
		t.late = append(t.late, ms(sent.Sub(due)))
		if q := srv.gw.Stats().Queued; q > t.queuedMax {
			t.queuedMax = q
		}
		t.attempted++
		if kind == slotWrite {
			if next >= len(in.trickles.batches) {
				t.failed++
				t.mismatched = append(t.mismatched, "write schedule ran past the generated batches")
				continue
			}
			if err := write(ln, srv, &in.trickles.batches[next], int64(i), t); err != nil {
				t.failed++
				t.mismatched = append(t.mismatched, fmt.Sprintf("write %d: %v", next, err))
			}
			next++
			continue
		}
		rec := serve(ln, srv.gw, reqs[i], int64(i))
		done := time.Now()
		t.service = append(t.service, ms(done.Sub(sent)))
		if rec.Code/100 != 2 {
			t.failed++
			t.mismatched = append(t.mismatched, fmt.Sprintf("%s: status %d", reqs[i].URL, rec.Code))
			continue
		}
		t.panelLat.add(t.part(sent), done.Sub(due))
		if kind == slotView {
			t.viewUs = append(t.viewUs, float64(done.Sub(sent))/float64(time.Microsecond))
		} else {
			t.engineStats(rec, true)
		}
	}
}

// write lands one 64-record batch past the data's end and drains it
// into the CQ views: ingest-to-queryable for both read paths.
func write(ln *lane, srv *server, b *batch, id int64, t *serveTally) error {
	t0 := time.Now()
	op := ln.begin("bench.write", id)
	defer ln.end(op)
	s := ln.begin("schema.encode", -1)
	msgs, n := b.encode()
	t.writeBytes += n
	ln.end(s)
	s = ln.begin("stream.publish", -1)
	_, err := srv.f.Broker.PublishBatch(b.topic, msgs)
	ln.end(s)
	if err != nil {
		return err
	}
	s = ln.begin("tsdb.insert", -1)
	err = srv.f.Lake.InsertBatch(b.obs)
	ln.end(s)
	if err != nil {
		return err
	}
	td := time.Now()
	s = ln.begin("cq.drain", -1)
	err = srv.pump.Drain(context.Background())
	ln.end(s)
	d := time.Since(td)
	t.catchup = append(t.catchup, ms(d))
	t.pumped += d
	t.writeLat.add(t.part(t0), time.Since(t0))
	return err
}

// analyst runs the closed loop until done closes, checking each history
// answer against its reference.
func analyst(ln *lane, srv *server, reqs []*http.Request, refs map[string][sha256.Size]byte, done <-chan struct{}, t *serveTally) {
	root := ln.begin("lane", 0)
	defer ln.end(root)
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		r := reqs[i%len(reqs)]
		if i >= len(reqs) {
			r = r.Clone(r.Context())
		}
		t.attempted++
		sent := time.Now()
		rec := serve(ln, srv.gw, r, int64(i))
		d := time.Since(sent)
		t.service = append(t.service, ms(d))
		u := r.URL.String()
		if rec.Code/100 != 2 {
			t.failed++
			t.mismatched = append(t.mismatched, fmt.Sprintf("%s: status %d", u, rec.Code))
			continue
		}
		if want, ok := refs[u]; !ok || want != sha256.Sum256(rec.Body.Bytes()) {
			t.mismatched = append(t.mismatched, fmt.Sprintf("%s: answer differs from the set-up reference", u))
		}
		t.histLat.add(t.part(sent), d)
		if t.byRoute == nil {
			t.byRoute = map[string]latencies{}
		}
		l := t.byRoute[r.URL.Path]
		l.add(d)
		t.byRoute[r.URL.Path] = l
		switch r.URL.Path {
		case "/api/v1/logs/search":
			t.logsMs = append(t.logsMs, ms(d))
		case "/api/v1/lake/query":
			t.engineStats(rec, false)
		}
	}
}

// checkServing verifies the end state: every write landed in the LAKE
// and the broker, and every CQ view equals the LAKE over its window.
func checkServing(srv *server, preloaded int64, written int, o *outcome) {
	want := preloaded + int64(written*trickleSize)
	if got := srv.f.Lake.Stats().RawIngested; got != want {
		o.problem("lake ingested %d observations, sent %d", got, want)
	}
	for _, v := range srv.views {
		fr, info := v.Read()
		ref, err := srv.f.Lake.Run(viewQuery(v, info))
		if err != nil || fr.Len() == 0 || !fr.Equal(ref) {
			o.problem("view %s differs from Lake.Run after the serving phase (%v)", v.Spec.Name, err)
		}
	}
}

// selfTimes extracts per-request gateway and httpapi self times (µs)
// from the traced lanes: gateway = its span minus the httpapi span;
// httpapi = its span minus the engine time the response reported.
func selfTimes(lg *ledger) (gw, api []float64) {
	for _, l := range lg.lanes {
		child := l.childTime()
		for i, s := range l.spans {
			self := float64(time.Duration(s.End-s.Start)-child[i]) / float64(time.Microsecond)
			switch s.Name {
			case "gateway.serve":
				gw = append(gw, self)
			case "httpapi.serve":
				api = append(api, self)
			}
		}
	}
	return gw, api
}

// coldProbe runs each distinct history lake/query shape once through
// Lake.RunWithStats after the timed phase, for the cold-tier pruning
// ratios and the per-stage wall times the HTTP headers do not carry.
func coldProbe(srv *server, in *servingInput, m map[string]float64) {
	var segS, segP, rgS, rgP, runs int
	var cold, scan, merge time.Duration
	for _, h := range in.history {
		if h.q == nil {
			continue
		}
		_, st, err := srv.f.Lake.RunWithStats(*h.q)
		if err != nil || st.CacheHit {
			continue
		}
		runs++
		segS += st.ColdSegmentsScanned
		segP += st.ColdSegmentsPruned
		rgS += st.ColdRowGroupsScanned
		rgP += st.ColdRowGroupsPruned
		cold += st.ColdWall
		scan += st.ScanWall
		merge += st.MergeWall
	}
	m["tsdb.cold_segments_pruned_ratio"] = ratio(float64(segP), float64(segS+segP))
	m["tsdb.cold_rowgroups_pruned_ratio"] = ratio(float64(rgP), float64(rgS+rgP))
	m["tsdb.cold_wall_ms"] = ratio(ms(cold), float64(runs))
	m["tsdb.scan_wall_ms"] = ratio(ms(scan), float64(runs))
	m["tsdb.merge_wall_ms"] = ratio(ms(merge), float64(runs))
}

// servingHarnessNs times the interactive loop's harness work per
// request — the recorder, the clock reads, the bookkeeping — around a
// no-op handler in place of the gateway.
func servingHarnessNs(reqs []*http.Request, kinds []int) float64 {
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	var t serveTally
	start := time.Now()
	n := 0
	for i, k := range kinds {
		if k == slotWrite {
			continue
		}
		sent := time.Now()
		rec := httptest.NewRecorder()
		noop.ServeHTTP(rec, reqs[i])
		done := time.Now()
		t.service = append(t.service, ms(done.Sub(sent)))
		t.panelLat.add(0, done.Sub(sent))
		n++
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(n))
}
