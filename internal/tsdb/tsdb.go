// Package tsdb implements the LAKE tier's time-series store (Fig 5): the
// role Apache Druid plays in the paper — online, real-time diagnostics
// over recent telemetry. Observations are rolled up on ingest (the 15 s
// aggregation of §V-A), held in time-chunked segments, and served through
// group-by, filter, and top-N queries at interactive latency. Segment
// retention keeps the hot tier bounded while OCEAN holds history.
package tsdb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/schema"
)

// Dimension names available for filtering and grouping.
const (
	DimSystem    = "system"
	DimSource    = "source"
	DimComponent = "component"
	DimMetric    = "metric"
)

var dimNames = []string{DimSystem, DimSource, DimComponent, DimMetric}

// Options tunes the store.
type Options struct {
	// SegmentDuration is the time-chunk width (default 1h).
	SegmentDuration time.Duration
	// RollupInterval is the ingest-time aggregation bucket (default 15s),
	// reconciling differing sample rates and clock skew.
	RollupInterval time.Duration
	// QueryCacheSize bounds the query-result cache (entries). 0 selects
	// the default (64); negative disables result caching.
	QueryCacheSize int
}

func (o Options) withDefaults() Options {
	if o.SegmentDuration <= 0 {
		o.SegmentDuration = time.Hour
	}
	if o.RollupInterval <= 0 {
		o.RollupInterval = 15 * time.Second
	}
	if o.QueryCacheSize == 0 {
		o.QueryCacheSize = 64
	}
	return o
}

type segment struct {
	start time.Time
	cells CellTable
	rows  int64 // raw observations ingested
}

// shardCount is the number of lock stripes. Series are hashed across
// shards by their dimensions, so concurrent producers writing different
// series never serialize on one mutex. Power of two keeps the modulo
// cheap.
const shardCount = 16

// dbShard is one lock stripe: an independent map of time-chunked
// segments holding the slice of rollup cells whose series hash here.
type dbShard struct {
	mu       sync.RWMutex
	segments map[int64]*segment // keyed by chunk start unixnano
	ingested int64
	// version counts mutations to this stripe (insert, import, retain).
	// It is bumped inside the stripe's critical section and read lock-free
	// by the query-result cache to fingerprint store state: a repeated
	// query whose shard-version vector is unchanged can be answered from
	// cache without touching any stripe.
	version atomic.Uint64
}

// DB is the time-series store. Safe for concurrent use: the cell space
// is partitioned over shardCount lock stripes by series hash, and every
// reader (Run, Export, Stats) visits the stripes one at a time.
type DB struct {
	opts   Options
	shards [shardCount]dbShard
	// batchCursor staggers the stripe visit order across InsertBatch
	// calls so concurrent batches don't convoy lock-for-lock.
	batchCursor atomic.Uint32
	// cache is the LRU query-result cache; nil when disabled.
	cache *queryCache
	// scanSlots admission-controls query fan-out: each in-flight scan
	// helper goroutine holds one slot, bounding the DB-wide total to
	// shardCount no matter how many queries run concurrently. A query
	// that finds the slots taken scans inline on its own goroutine —
	// under load the engine degrades toward serial instead of drowning
	// the scheduler in CPU-bound goroutines.
	scanSlots chan struct{}
	// partials pools per-query partial-aggregation tables (see
	// partialSet) so steady query traffic reuses grown slot arrays.
	partials sync.Pool
	// hookMu guards faultHook; a separate lock because the DB itself is
	// striped and has no global mutex.
	hookMu sync.RWMutex
	// faultHook, when set, is consulted before batch inserts
	// ("lake.insert" with the batch's source as target); a non-nil result
	// aborts before any stripe is touched, so a retried batch cannot
	// double-count observations. The chaos injector (internal/faults)
	// installs here.
	faultHook func(op, target string) error
	// instr holds the live obs instruments (see instrument.go); nil —
	// the default — keeps the hot path at a single load+branch.
	instr atomic.Pointer[instruments]
	// cold is the attached OCEAN/GLACIER tier (see tier.go); nil — the
	// default — keeps un-federated queries at a single load+branch.
	cold atomic.Pointer[ColdTier]
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook
// consulted before InsertBatch.
func (db *DB) SetFaultHook(h func(op, target string) error) {
	db.hookMu.Lock()
	defer db.hookMu.Unlock()
	db.faultHook = h
}

// fault consults the injection hook for one operation.
func (db *DB) fault(op, target string) error {
	db.hookMu.RLock()
	h := db.faultHook
	db.hookMu.RUnlock()
	if h == nil {
		return nil
	}
	return h(op, target)
}

// New returns an empty store.
func New(opts Options) *DB {
	db := &DB{opts: opts.withDefaults(), scanSlots: make(chan struct{}, shardCount)}
	for i := range db.shards {
		db.shards[i].segments = make(map[int64]*segment)
	}
	if db.opts.QueryCacheSize > 0 {
		db.cache = newQueryCache(db.opts.QueryCacheSize)
	}
	return db
}

// versionVector snapshots every stripe's mutation counter. Reading it
// before a scan keys cached results conservatively: a write that lands
// mid-scan bumps the vector, so the (possibly fresher) cached entry can
// never be served once the store has visibly changed.
func (db *DB) versionVector() [shardCount]uint64 {
	var vv [shardCount]uint64
	for i := range db.shards {
		vv[i] = db.shards[i].version.Load()
	}
	return vv
}

// seriesHash is FNV-1a over component and metric — the dimensions that
// actually vary across concurrent producers. It is computed once per
// record and reused for both the lock stripe and the cell-table probe;
// series differing only in system or source share a stripe and a probe
// chain, which costs a little clustering, never correctness.
func seriesHash(component, metric string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(component); i++ {
		h = (h ^ uint32(component[i])) * prime32
	}
	h = (h ^ 0xff) * prime32 // separator so ("ab","c") != ("a","bc")
	for i := 0; i < len(metric); i++ {
		h = (h ^ uint32(metric[i])) * prime32
	}
	return h
}

// shardIndex maps a series onto a lock stripe.
func shardIndex(component, metric string) uint32 {
	return seriesHash(component, metric) % shardCount
}

// NumStripes is the number of lock stripes (and the fixed fold order
// width) of every DB. The continuous-query engine (internal/cq) keeps
// its view state in the same stripe geometry, so folding it through the
// shared kernel replays Run's exact float accumulation order.
const NumStripes = shardCount

// StripeFor maps a series onto its lock stripe — the same FNV-1a hash
// the ingest and query paths use, so state kept outside a DB in stripe
// geometry (internal/cq) cannot drift from the store's own striping.
func StripeFor(component, metric string) int {
	return int(shardIndex(component, metric))
}

// insertLocked rolls one observation into seg; the owning shard's mu
// must be held. h is the record's seriesHash and bucketN its
// epoch-anchored rollup bucket in nanos.
func insertLocked(sh *dbShard, seg *segment, h uint32, bucketN int64, o *schema.Observation) {
	key := RollupKey{
		Ts: bucketN, System: o.System, Source: o.Source,
		Component: o.Component, Metric: o.Metric,
	}
	seg.cells.cell(cellHash(h, bucketN), key).Add(o.Ts.UnixNano(), o.Value)
	seg.rows++
	sh.ingested++
}

// segmentLocked returns (creating if needed) the shard's segment for the
// chunk starting at chunkN nanos; the shard's mu must be held.
func (sh *dbShard) segmentLocked(chunkN int64) *segment {
	seg, ok := sh.segments[chunkN]
	if !ok {
		seg = &segment{start: time.Unix(0, chunkN).UTC()}
		sh.segments[chunkN] = seg
	}
	return seg
}

// chunkAndBucket returns the epoch-anchored segment chunk and rollup
// bucket (unix nanos) for a timestamp. Epoch anchoring matches the
// bucket semantics of Run and is cheaper than time.Time.Truncate on the
// ingest hot path.
func (db *DB) chunkAndBucket(ts time.Time) (chunkN, bucketN int64) {
	tsn := ts.UnixNano()
	chunkN = tsn - floorMod(tsn, int64(db.opts.SegmentDuration))
	bucketN = tsn - floorMod(tsn, int64(db.opts.RollupInterval))
	return chunkN, bucketN
}

// Insert rolls one observation into its segment.
func (db *DB) Insert(o schema.Observation) {
	chunkN, bucketN := db.chunkAndBucket(o.Ts)
	h := seriesHash(o.Component, o.Metric)
	sh := &db.shards[h%shardCount]
	sh.mu.Lock()
	insertLocked(sh, sh.segmentLocked(chunkN), h, bucketN, &o)
	sh.version.Add(1)
	sh.mu.Unlock()
}

// InsertBatch rolls a batch of observations into their segments, taking
// each shard lock at most once for the whole batch — the contention-free
// ingest path producers should prefer at volume. A non-nil error means
// the fault hook rejected the batch before any observation landed, so
// the caller may retry the whole batch without double-counting.
func (db *DB) InsertBatch(obs []schema.Observation) error {
	n := len(obs)
	if n == 0 {
		return nil
	}
	if err := db.fault("lake.insert", obs[0].Source); err != nil {
		return err
	}
	// Counting-sort the batch indices by stripe so each stripe visit walks
	// only its own records instead of rescanning the whole batch. The
	// series hashes are kept: the stripe loop reuses them for the
	// cell-table probes.
	var hashBuf [1024]uint32
	var ordBuf [1024]int32
	var hashes []uint32
	var order []int32
	if n <= len(hashBuf) {
		hashes, order = hashBuf[:n:n], ordBuf[:n:n]
	} else {
		hashes, order = make([]uint32, n), make([]int32, n)
	}
	var counts, pos [shardCount]int32
	for i := range obs {
		h := seriesHash(obs[i].Component, obs[i].Metric)
		hashes[i] = h
		counts[h%shardCount]++
	}
	acc := int32(0)
	for s := range counts {
		pos[s] = acc
		acc += counts[s]
	}
	for i := range obs {
		s := hashes[i] % shardCount
		order[pos[s]] = int32(i)
		pos[s]++ // pos[s] ends at the stripe's group end
	}
	// Stagger which stripe each batch starts with: concurrent batches all
	// walking stripes 0..N in lockstep would convoy on the same mutexes.
	start := int(db.batchCursor.Add(1)) % shardCount
	chunkD, bucketD := int64(db.opts.SegmentDuration), int64(db.opts.RollupInterval)
	for k := 0; k < shardCount; k++ {
		s := (start + k) % shardCount
		if counts[s] == 0 {
			continue
		}
		sh := &db.shards[s]
		sh.mu.Lock()
		// Batch timestamps are overwhelmingly near-monotonic: cache the
		// current rollup bucket and time chunk (avoiding two int64
		// divisions per record) and the segment lookup across the run.
		// The reuse window [winLo, winHi) is the intersection of the
		// bucket and its chunk, so a bucket straddling a chunk boundary
		// can never smuggle a record into the wrong segment.
		var seg *segment
		var chunkN, bucketN int64
		winLo, winHi := int64(0), int64(-1<<62) // empty: first record computes
		segChunk := int64(-1 << 62)
		for _, oi := range order[pos[s]-counts[s] : pos[s]] {
			o := &obs[oi]
			tsn := o.Ts.UnixNano()
			if tsn < winLo || tsn >= winHi {
				chunkN = tsn - floorMod(tsn, chunkD)
				bucketN = tsn - floorMod(tsn, bucketD)
				winLo, winHi = bucketN, bucketN+bucketD
				if chunkN > winLo {
					winLo = chunkN
				}
				if chunkN+chunkD < winHi {
					winHi = chunkN + chunkD
				}
			}
			if seg == nil || chunkN != segChunk {
				seg = sh.segmentLocked(chunkN)
				segChunk = chunkN
			}
			insertLocked(sh, seg, hashes[oi], bucketN, o)
		}
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	// Per-batch (never per-record) instrumentation: two striped counter
	// adds, the whole hot-path observability budget.
	if ins := db.instr.Load(); ins != nil {
		ins.insertBatches.Inc()
		ins.insertRows.Add(int64(n))
	}
	return nil
}

// ScanLoad reports query-engine saturation as the fraction of scan-slot
// helpers currently in flight, in [0,1]. 1.0 means every helper slot is
// taken and new queries are degrading toward serial scans — the signal
// the HTTP API's load shedder watches.
func (db *DB) ScanLoad() float64 {
	return float64(len(db.scanSlots)) / float64(cap(db.scanSlots))
}

// ScanSlotCap reports the DB-wide scan-slot budget — the maximum number
// of helper goroutines the query engine will ever run at once. The
// serving gateway's priority admission control sizes its concurrency
// window from this, so the number of admitted queries tracks what the
// engine can actually fan out instead of an unrelated constant.
func (db *DB) ScanSlotCap() int { return cap(db.scanSlots) }

// InsertRow inserts a row conforming to schema.ObservationSchema.
func (db *DB) InsertRow(r schema.Row) error {
	if err := r.Conforms(schema.ObservationSchema); err != nil {
		return err
	}
	db.Insert(schema.ObservationFromRow(r))
	return nil
}

// RollupSchema is the export format of Export: one row per rollup cell
// with the full aggregation state — count/sum/min/max plus the
// last-value pair (last, last_ts) — so OCEAN-archived LAKE history can
// be re-aggregated without the raw data, including AggLast.
var RollupSchema = schema.New(
	schema.Field{Name: "bucket", Kind: schema.KindTime},
	schema.Field{Name: "system", Kind: schema.KindString},
	schema.Field{Name: "source", Kind: schema.KindString},
	schema.Field{Name: "component", Kind: schema.KindString},
	schema.Field{Name: "metric", Kind: schema.KindString},
	schema.Field{Name: "count", Kind: schema.KindInt},
	schema.Field{Name: "sum", Kind: schema.KindFloat},
	schema.Field{Name: "min", Kind: schema.KindFloat},
	schema.Field{Name: "max", Kind: schema.KindFloat},
	schema.Field{Name: "last", Kind: schema.KindFloat},
	schema.Field{Name: "last_ts", Kind: schema.KindTime},
)

// Export serializes every segment whose chunk ended before cutoff into a
// RollupSchema frame (sorted by bucket, then system, source, component,
// metric) — the LAKE→OCEAN offload that runs just before Retain drops
// those segments.
func (db *DB) Export(cutoff time.Time) (*schema.Frame, error) {
	type kv struct {
		k RollupKey
		c Cell
	}
	var cells []kv
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.RLock()
		for _, seg := range sh.segments {
			if !seg.start.Add(db.opts.SegmentDuration).Before(cutoff) {
				continue
			}
			for i := range seg.cells.keys {
				cells = append(cells, kv{seg.cells.keys[i], seg.cells.cells[i]})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].k, cells[j].k
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.System != b.System {
			return a.System < b.System
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Metric < b.Metric
	})
	out := schema.NewFrame(RollupSchema)
	for _, cell := range cells {
		row := schema.Row{
			schema.TimeNanos(cell.k.Ts), schema.Str(cell.k.System), schema.Str(cell.k.Source),
			schema.Str(cell.k.Component), schema.Str(cell.k.Metric),
			schema.Int(cell.c.Count), schema.Float(cell.c.Sum),
			schema.Float(cell.c.Min), schema.Float(cell.c.Max),
			schema.Float(cell.c.Last), schema.TimeNanos(cell.c.LastTs),
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ImportRollups merges a RollupSchema frame (as produced by Export) back
// into the store — the OCEAN→LAKE rehydration path. Imported cells merge
// with any live cells for the same series and bucket, so re-importing
// offloaded history alongside fresh ingest is safe.
func (db *DB) ImportRollups(f *schema.Frame) error {
	if !f.Schema().Equal(RollupSchema) {
		return fmt.Errorf("tsdb: import: frame schema %v does not conform to RollupSchema", f.Schema())
	}
	for i := 0; i < f.Len(); i++ {
		r := f.Row(i)
		bucket := r[0].TimeVal()
		key := RollupKey{
			Ts: bucket.UnixNano(), System: r[1].StrVal(), Source: r[2].StrVal(),
			Component: r[3].StrVal(), Metric: r[4].StrVal(),
		}
		cell := Cell{
			Count: r[5].IntVal(), Sum: r[6].FloatVal(),
			Min: r[7].FloatVal(), Max: r[8].FloatVal(),
			Last: r[9].FloatVal(), LastTs: r[10].TimeVal().UnixNano(),
		}
		chunkN, _ := db.chunkAndBucket(bucket)
		h := seriesHash(key.Component, key.Metric)
		sh := &db.shards[h%shardCount]
		sh.mu.Lock()
		seg := sh.segmentLocked(chunkN)
		seg.cells.cell(cellHash(h, key.Ts), key).Merge(cell)
		seg.rows += cell.Count
		sh.ingested += cell.Count
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	return nil
}

// Retain drops segments whose chunk ended before cutoff and returns how
// many time chunks were dropped — the LAKE tier's bounded retention.
func (db *DB) Retain(cutoff time.Time) int {
	dropped := make(map[int64]struct{})
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		before := len(sh.segments)
		for k, seg := range sh.segments {
			if seg.start.Add(db.opts.SegmentDuration).Before(cutoff) {
				delete(sh.segments, k)
				dropped[k] = struct{}{}
			}
		}
		if len(sh.segments) != before {
			sh.version.Add(1)
		}
		sh.mu.Unlock()
	}
	return len(dropped)
}

// Stats summarizes store contents.
type Stats struct {
	Segments    int
	RollupCells int64
	RawIngested int64
}

// Stats returns current counters. Segments counts distinct time chunks
// (a chunk's cells are spread across shards but it is one segment).
func (db *DB) Stats() Stats {
	var st Stats
	chunks := make(map[int64]struct{})
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.RLock()
		st.RawIngested += sh.ingested
		for k, s := range sh.segments {
			chunks[k] = struct{}{}
			st.RollupCells += int64(s.cells.Len())
		}
		sh.mu.RUnlock()
	}
	st.Segments = len(chunks)
	return st
}
