package cq

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/schema"
	"odakit/internal/tsdb"
)

// topicPart identifies one partition's slice of view state. The read
// fold visits these in (topic asc, partition asc) order — the replay
// order of ReplayBronzeToLake.
type topicPart struct {
	topic string
	part  int
}

// partChunks is one partition's cells, chunked by segment start. Each
// chunk is a tsdb.CellTable, so it keeps the same first-touch insertion
// order a LAKE segment keeps.
type partChunks struct {
	chunks map[int64]*tsdb.CellTable
}

// WindowInfo describes the window a Read answered for.
type WindowInfo struct {
	From, To  time.Time
	Watermark time.Time
	Gen       uint64
	Cells     int64 // live cells folded (0 on a generation-cache hit)
	CacheHit  bool
}

// View is one standing query's materialized state. All mutation goes
// through the owning Engine's Apply; reads are safe for concurrent use.
type View struct {
	ID   string
	Spec Spec

	rollupN int64
	segN    int64
	windowN int64     // Window rounded up to whole rollup intervals
	plan    tsdb.Plan // the Spec compiled; Over places it on a window

	mu sync.Mutex
	// stripes × (topic, partition) × chunk, in tsdb's exact geometry.
	stripes [tsdb.NumStripes]map[topicPart]*partChunks
	// sorted (topic, partition) fold order, rebuilt when a partition
	// first appears. Shared by all stripes.
	tps       []topicPart
	watermark int64 // max event ts seen (nanos); minInt64 until data
	// evictedBefore is the high-water eviction mark: every chunk with
	// end <= evictedBefore has been dropped, and records landing below
	// it are counted late and discarded rather than resurrecting state
	// the window has passed.
	evictedBefore int64
	applied       int64
	late          int64

	gen        atomic.Uint64
	cachedGen  uint64
	cachedAt   WindowInfo
	cached     *schema.Frame
	subs       map[int]chan struct{}
	nextSub    int
	alerts     *alertState
	watchCount atomic.Int64

	engine *Engine
}

const minWatermark = -1 << 62

func newView(e *Engine, spec Spec) *View {
	v := &View{
		ID:      viewID(spec),
		Spec:    spec,
		rollupN: int64(e.cfg.RollupInterval),
		segN:    int64(e.cfg.SegmentDuration),
		plan:    tsdb.Compile(spec.query()),
		subs:    make(map[int]chan struct{}),

		watermark:     minWatermark,
		evictedBefore: minWatermark,
		engine:        e,
	}
	v.windowN = ceilMul(int64(spec.Window), v.rollupN)
	for i := range v.stripes {
		v.stripes[i] = make(map[topicPart]*partChunks)
	}
	if spec.Alert != nil {
		v.alerts = newAlertState(spec, v.rollupN)
	}
	return v
}

// windowBounds computes the live window for a watermark: the half-open
// [from, to) a Read folds and the equivalent batch query would use.
func (v *View) windowBounds(wm int64) (fromN, toN int64, ok bool) {
	if wm == minWatermark {
		return 0, 0, false
	}
	if v.Spec.Kind == WindowTumbling {
		fromN = tsdb.BucketStart(wm, v.windowN)
		return fromN, fromN + v.windowN, true
	}
	toN = tsdb.BucketStart(wm, v.rollupN) + v.rollupN
	return toN - v.windowN, toN, true
}

// apply folds one partition-ordered run of observations into the view
// and reports how many were applied and how many dropped late. Caller
// is the engine, which fans a poll batch out per (topic, partition) run
// so per-partition order is preserved.
func (v *View) apply(topic string, part int, obs []schema.Observation) (appliedN, lateN int64) {
	v.mu.Lock()
	applied0, late0 := v.applied, v.late
	tp := topicPart{topic: topic, part: part}
	for i := range obs {
		o := &obs[i]
		tsn := o.Ts.UnixNano()
		if tsn > v.watermark {
			v.watermark = tsn
		}
		key := tsdb.RollupKey{
			Ts:     tsdb.BucketStart(tsn, v.rollupN),
			System: o.System, Source: o.Source, Component: o.Component, Metric: o.Metric,
		}
		if !v.plan.Match(&key) {
			continue
		}
		chunkN := tsdb.BucketStart(tsn, v.segN)
		if chunkN+v.segN <= v.evictedBefore {
			// Late record below the eviction horizon: its chunk is gone
			// and the window can never include it again. The batch
			// reference excludes it the same way (bucket ts < from).
			v.late++
			continue
		}
		stripe := tsdb.StripeFor(o.Component, o.Metric)
		pc := v.stripes[stripe][tp]
		if pc == nil {
			pc = &partChunks{chunks: make(map[int64]*tsdb.CellTable)}
			v.stripes[stripe][tp] = pc
			v.noteTPLocked(tp)
		}
		cc := pc.chunks[chunkN]
		if cc == nil {
			cc = &tsdb.CellTable{}
			pc.chunks[chunkN] = cc
		}
		cc.Cell(key).Add(tsn, o.Value)
		v.applied++
	}
	v.evictLocked()
	var closed []closedBucket
	if v.alerts != nil {
		closed = v.alerts.closeBuckets(v)
	}
	appliedN, lateN = v.applied-applied0, v.late-late0
	v.mu.Unlock()
	v.bump()
	if len(closed) > 0 {
		if fired := v.alerts.scoreAndAlert(v, closed); fired > 0 && v.engine != nil {
			v.engine.noteAlerts(fired)
		}
	}
	return appliedN, lateN
}

// noteTPLocked records a newly seen (topic, partition) in fold order.
func (v *View) noteTPLocked(tp topicPart) {
	for _, have := range v.tps {
		if have == tp {
			return
		}
	}
	v.tps = append(v.tps, tp)
	sort.Slice(v.tps, func(i, j int) bool {
		if v.tps[i].topic != v.tps[j].topic {
			return v.tps[i].topic < v.tps[j].topic
		}
		return v.tps[i].part < v.tps[j].part
	})
}

// evictLocked drops whole chunks the window has moved past. Only chunks
// wholly before the window start go: the read path time-filters at cell
// granularity, so a chunk straddling the window edge stays until the
// edge passes its end.
func (v *View) evictLocked() {
	fromN, _, ok := v.windowBounds(v.watermark)
	if !ok {
		return
	}
	for s := range v.stripes {
		for _, pc := range v.stripes[s] {
			for chunkN := range pc.chunks {
				if chunkN+v.segN <= fromN {
					delete(pc.chunks, chunkN)
				}
			}
		}
	}
	if fromN > v.evictedBefore {
		v.evictedBefore = fromN
	}
}

// bump advances the view generation and pokes watchers.
func (v *View) bump() {
	v.gen.Add(1)
	v.mu.Lock()
	for _, ch := range v.subs {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a wakeup pending
		}
	}
	v.mu.Unlock()
	if v.engine != nil {
		v.engine.mUpdates.Inc()
	}
}

// Gen returns the view's current generation (bumped on every applied
// batch). Watchers long-poll against it.
func (v *View) Gen() uint64 { return v.gen.Load() }

// Invalidate forces the next Read to re-fold instead of answering from
// the generation cache. Benchmarks use it to measure the fold path.
func (v *View) Invalidate() { v.gen.Add(1) }

// Subscribe registers a watcher; the channel receives (coalesced)
// wakeups on every view update. Unsubscribe with the returned cancel.
func (v *View) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	v.mu.Lock()
	id := v.nextSub
	v.nextSub++
	v.subs[id] = ch
	v.mu.Unlock()
	v.watchCount.Add(1)
	return ch, func() {
		v.mu.Lock()
		delete(v.subs, id)
		v.mu.Unlock()
		v.watchCount.Add(-1)
	}
}

// Read folds the live window into a result frame with tsdb.Run's exact
// fold order and output shape. Repeated reads at an unchanged
// generation are free (the previous frame is returned); treat returned
// frames as read-only.
func (v *View) Read() (*schema.Frame, WindowInfo) {
	gen := v.gen.Load()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cached != nil && v.cachedGen == gen {
		info := v.cachedAt
		info.CacheHit = true
		if v.engine != nil {
			v.engine.mReads.Inc()
			v.engine.mReadHits.Inc()
		}
		return v.cached, info
	}
	frame, info := v.foldLocked()
	info.Gen = gen
	v.cached, v.cachedGen, v.cachedAt = frame, gen, info
	if v.engine != nil {
		v.engine.mReads.Inc()
	}
	return frame, info
}

// foldLocked folds the live window and emits it through tsdb's sorted
// emit: rows ordered by (ts, dims), Run's output shape.
func (v *View) foldLocked() (*schema.Frame, WindowInfo) {
	info := WindowInfo{}
	groups := &tsdb.GroupTable{}
	if fromN, toN, ok := v.windowBounds(v.watermark); ok {
		info.From = time.Unix(0, fromN).UTC()
		info.To = time.Unix(0, toN).UTC()
		info.Watermark = time.Unix(0, v.watermark).UTC()
		groups, info.Cells = v.foldRangeLocked(&v.plan, fromN, toN)
	}
	return v.plan.Emit(groups), info
}

// foldRangeLocked folds the cells in [fromN, toN) under plan (granularity
// 0 collapses onto fromN) and returns the output groups plus the cells
// scanned. The order is the canonical one: stripe asc → chunk asc →
// (topic, partition) asc → insertion order, each chunk table folded by
// tsdb's shared fold step, and the per-stripe partials merged by tsdb's
// stripe-order merge — tsdb.Run's exact float accumulation order over a
// partition-major-replayed store.
func (v *View) foldRangeLocked(plan *tsdb.Plan, fromN, toN int64) (*tsdb.GroupTable, int64) {
	p := plan.Over(fromN, toN)
	var cellsScanned int64
	var parts [tsdb.NumStripes]*tsdb.GroupTable
	for s, byTP := range v.stripes {
		// Union of chunk starts across this stripe's partitions,
		// ascending — tsdb folds a stripe's segments in chunk order.
		var chunks []int64
		for _, pc := range byTP {
			for chunkN := range pc.chunks {
				if chunkN < toN && chunkN+v.segN > fromN {
					chunks = append(chunks, chunkN)
				}
			}
		}
		if len(chunks) == 0 {
			continue
		}
		slices.Sort(chunks)
		chunks = slices.Compact(chunks)
		gt := &tsdb.GroupTable{}
		for _, chunkN := range chunks {
			contained := chunkN >= fromN && chunkN+v.segN <= toN
			for _, tp := range v.tps {
				pc := byTP[tp]
				if pc == nil {
					continue
				}
				if t := pc.chunks[chunkN]; t != nil {
					cellsScanned += int64(t.Len())
					p.Fold(gt, t, contained)
				}
			}
		}
		parts[s] = gt
	}
	return tsdb.MergeStripes(parts[:]), cellsScanned
}

// ViewStats is a view's live state summary.
type ViewStats struct {
	ID        string        `json:"id"`
	Name      string        `json:"name"`
	Window    time.Duration `json:"window"`
	Kind      string        `json:"kind"`
	Gen       uint64        `json:"gen"`
	Applied   int64         `json:"applied"`
	Late      int64         `json:"late"`
	Cells     int64         `json:"cells"`
	Watchers  int64         `json:"watchers"`
	Alerts    int64         `json:"alerts"`
	Watermark time.Time     `json:"watermark"`
}

// Stats snapshots the view's counters.
func (v *View) Stats() ViewStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	st := ViewStats{
		ID: v.ID, Name: v.Spec.Name, Window: v.Spec.Window,
		Kind: v.Spec.Kind.String(), Gen: v.gen.Load(),
		Applied: v.applied, Late: v.late, Watchers: v.watchCount.Load(),
	}
	if v.watermark != minWatermark {
		st.Watermark = time.Unix(0, v.watermark).UTC()
	}
	for s := range v.stripes {
		for _, pc := range v.stripes[s] {
			for _, cc := range pc.chunks {
				st.Cells += int64(cc.Len())
			}
		}
	}
	if v.alerts != nil {
		st.Alerts = v.alerts.count()
	}
	return st
}
