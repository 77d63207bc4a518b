// Query engine for the LAKE store: shard-parallel scans with per-shard
// partial aggregation, per-query compiled filters, and a version-keyed
// result cache. PR 2 made ingest batch-first; this file is the matching
// read path. A query fans out one worker per lock stripe, each folding
// its stripe's cells into a private open-addressed partial-aggregation
// table (no shared map, no cross-shard lock convoy), and the partials
// are merged in stripe order so results are deterministic — merging in
// a fixed order keeps float accumulation reproducible run to run.
//
// RunSerial is retained as the reference implementation: the paper's
// original single-threaded scan, kept for equivalence testing (the
// property test asserts Run's frames are byte-identical) and as the
// baseline the query benchmarks measure speedups against.
package tsdb

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/schema"
)

// ErrBadQuery reports an invalid query.
var ErrBadQuery = errors.New("tsdb: bad query")

// AggKind selects the aggregation applied to matching cells.
type AggKind int

// Supported aggregations.
const (
	AggAvg AggKind = iota
	AggSum
	AggMin
	AggMax
	AggCount
	AggLast
)

// Query describes a group-by query.
type Query struct {
	// From and To bound the time range (half-open).
	From, To time.Time
	// Filters are dimension-equality constraints; a dimension maps to the
	// set of accepted values (OR within a dimension, AND across).
	Filters map[string][]string
	// GroupBy lists output dimensions (subset of system, source,
	// component, metric). Time is always grouped by Granularity.
	GroupBy []string
	// Granularity buckets output rows in time; 0 collapses the range to
	// a single bucket.
	Granularity time.Duration
	// Agg is the aggregation to report.
	Agg AggKind
}

// ResultSchema returns the schema of the query's result frame: ts, the
// group-by dimensions, then "value".
func (q Query) ResultSchema() *schema.Schema {
	fields := []schema.Field{{Name: "ts", Kind: schema.KindTime}}
	for _, d := range q.GroupBy {
		fields = append(fields, schema.Field{Name: d, Kind: schema.KindString})
	}
	fields = append(fields, schema.Field{Name: "value", Kind: schema.KindFloat})
	return schema.New(fields...)
}

func (q Query) validate() error {
	if !q.To.After(q.From) {
		return fmt.Errorf("%w: empty time range", ErrBadQuery)
	}
	if len(q.GroupBy) > len(dimNames) {
		return fmt.Errorf("%w: too many group-by dimensions", ErrBadQuery)
	}
	seen := map[string]bool{}
	for _, d := range q.GroupBy {
		if seen[d] {
			return fmt.Errorf("%w: duplicate group-by dimension %q", ErrBadQuery, d)
		}
		seen[d] = true
	}
	for _, d := range q.GroupBy {
		if !validDim(d) {
			return fmt.Errorf("%w: unknown group-by dimension %q", ErrBadQuery, d)
		}
	}
	for d := range q.Filters {
		if !validDim(d) {
			return fmt.Errorf("%w: unknown filter dimension %q", ErrBadQuery, d)
		}
	}
	return nil
}

func validDim(d string) bool {
	for _, n := range dimNames {
		if n == d {
			return true
		}
	}
	return false
}

// partialSet is one query's per-shard partial-aggregation tables. Sets
// are pooled per DB: a steady query load reuses grown slot arrays
// instead of re-allocating ~megabytes of table per query, which keeps
// the garbage collector out of the scan path.
type partialSet struct {
	tables [shardCount]GroupTable
}

func (db *DB) getPartials() *partialSet {
	if v := db.partials.Get(); v != nil {
		ps := v.(*partialSet)
		for i := range ps.tables {
			ps.tables[i].reset()
		}
		return ps
	}
	return &partialSet{}
}

func (db *DB) putPartials(ps *partialSet) { db.partials.Put(ps) }

// QueryStats reports what one query execution did, making the engine's
// pruning, parallelism, and caching observable to dashboards and benches.
type QueryStats struct {
	// CacheHit is true when the result came from the query-result cache
	// (the scan counters below are then zero).
	CacheHit bool
	// Workers is how many scan goroutines executed the query.
	Workers int
	// SegmentsScanned / SegmentsPruned count time chunks visited vs
	// skipped by chunk-level time pruning, summed over shards.
	SegmentsScanned int
	SegmentsPruned  int
	// CellsScanned counts rollup cells examined; CellsMatched counts
	// those that survived the time range and compiled filters.
	CellsScanned int64
	CellsMatched int64
	// Groups is the output row count before truncation (TopN).
	Groups int
	// Cold-tier federation: segments are whole offloaded time chunks,
	// row groups are the OCF groups inside the ones that survived.
	// "Pruned" means skipped by zone-map/bloom/dictionary evidence
	// without inflating the data.
	ColdSegmentsScanned  int
	ColdSegmentsPruned   int
	ColdRowGroupsScanned int
	ColdRowGroupsPruned  int
	// ColdCells counts cold rollup cells folded into the result.
	ColdCells int64
	// GlacierSegments counts cold segments whose object had aged into
	// the archive; GlacierPending how many were unreadable this pass
	// (recall not complete — the answer excludes them), GlacierRecalls
	// how many recalls this query initiated. RecallWait is the longest
	// remaining recall wait, i.e. when re-running the query is worth it.
	GlacierSegments int
	GlacierPending  int
	GlacierRecalls  int
	RecallWait      time.Duration
	// Per-stage wall clock: cold-tier fold, shard scans, partial merge,
	// sort + emit.
	ColdWall  time.Duration
	ScanWall  time.Duration
	MergeWall time.Duration
	EmitWall  time.Duration
	TotalWall time.Duration
}

type scanStats struct {
	segsScanned, segsPruned    int
	cellsScanned, cellsMatched int64
}

// scanShard folds one stripe's cells into gt, the shard's private
// partial-aggregation table. Segments are visited in chunk order so
// accumulation order — and therefore float rounding — is deterministic.
func (db *DB) scanShard(si int, p *Plan, gt *GroupTable) scanStats {
	var ss scanStats
	sh := &db.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if len(sh.segments) == 0 {
		return ss
	}
	chunks := make([]int64, 0, len(sh.segments))
	for k := range sh.segments {
		chunks = append(chunks, k)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
	segDur := int64(db.opts.SegmentDuration)
	for _, chunkN := range chunks {
		if chunkN >= p.toN || chunkN+segDur <= p.fromN {
			ss.segsPruned++ // segment pruning by time chunk
			continue
		}
		ss.segsScanned++
		seg := sh.segments[chunkN]
		// A segment wholly inside the range needs no per-cell time check.
		contained := chunkN >= p.fromN && chunkN+segDur <= p.toN
		ss.cellsScanned += int64(seg.cells.Len())
		ss.cellsMatched += p.Fold(gt, &seg.cells, contained)
	}
	return ss
}

// queryWorkers picks the desired scan fan-out: one worker per shard,
// bounded by the machine — on a single-core box the engine degrades to
// the serial fast path with no goroutine overhead.
func queryWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > shardCount {
		w = shardCount
	}
	if w < 1 {
		w = 1
	}
	return w
}

// aggregate executes the scan + merge phases shared by Run and TopN:
// shard-parallel partials, merged in stripe order into one table.
//
// The calling goroutine always scans; extra helper goroutines are
// spawned only for slots won from db.scanSlots, so the DB-wide helper
// count stays bounded regardless of query concurrency. One query on an
// idle store fans out across all shards; sixteen concurrent queries
// each run near-serial instead of stampeding 256 goroutines onto the
// scheduler.
func (db *DB) aggregate(p *Plan, st *QueryStats) (*GroupTable, *partialSet, error) {
	ps := db.getPartials()
	if ct := db.cold.Load(); ct != nil {
		// Hold the tier shared for the cold fold AND the hot scan: an
		// offload moving a chunk between the two halves would make the
		// chunk invisible (or doubly visible) to this one query.
		ct.mu.RLock()
		defer ct.mu.RUnlock()
		coldStart := time.Now()
		if err := ct.scanCold(p, st, ps); err != nil {
			return nil, ps, err
		}
		st.ColdWall = time.Since(coldStart)
	}
	helpers := 0
	for helpers < queryWorkers()-1 {
		select {
		case db.scanSlots <- struct{}{}:
			helpers++
			continue
		default:
		}
		break
	}
	st.Workers = helpers + 1
	var stats [shardCount]scanStats
	scanStart := time.Now()
	var next atomic.Int32
	scanLoop := func() {
		for {
			s := int(next.Add(1)) - 1
			if s >= shardCount {
				return
			}
			stats[s] = db.scanShard(s, p, &ps.tables[s])
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer wg.Done()
			defer func() { <-db.scanSlots }()
			scanLoop()
		}()
	}
	scanLoop()
	wg.Wait()
	st.ScanWall = time.Since(scanStart)
	mergeStart := time.Now()
	var parts [shardCount]*GroupTable
	for s := range parts {
		parts[s] = &ps.tables[s]
	}
	total := MergeStripes(parts[:])
	st.MergeWall = time.Since(mergeStart)
	for s := range stats {
		st.SegmentsScanned += stats[s].segsScanned
		st.SegmentsPruned += stats[s].segsPruned
		st.CellsScanned += stats[s].cellsScanned
		st.CellsMatched += stats[s].cellsMatched
	}
	st.Groups = total.n
	return total, ps, nil
}

// Run executes the query and returns a frame sorted by (ts, dims).
// Granularity buckets are anchored at the Unix epoch (Druid semantics):
// the same data queried with a shifted From lands in the same buckets.
// Granularity 0 collapses the range to a single bucket labeled q.From.
//
// Results are deterministic (shards and segments are folded in a fixed
// order) and may be served from the query-result cache; treat returned
// frames as read-only.
func (db *DB) Run(q Query) (*schema.Frame, error) {
	f, _, err := db.RunWithStats(q)
	return f, err
}

// RunWithStats is Run plus execution statistics.
func (db *DB) RunWithStats(q Query) (*schema.Frame, QueryStats, error) {
	t0 := time.Now()
	var st QueryStats
	if err := q.validate(); err != nil {
		return nil, st, err
	}
	var key cacheKey
	if db.cache != nil {
		key = cacheKey{fp: q.fingerprint(), vv: db.versionVector(), gen: db.coldGeneration()}
		if f, ok := db.cache.get(key); ok {
			st.CacheHit = true
			st.Groups = f.Len()
			st.TotalWall = time.Since(t0)
			db.noteQuery(st)
			return f, st, nil
		}
	}
	p := Compile(q)
	total, ps, err := db.aggregate(&p, &st)
	defer db.putPartials(ps)
	if err != nil {
		return nil, st, err
	}

	emitStart := time.Now()
	out := p.Emit(total)
	st.EmitWall = time.Since(emitStart)
	// A result missing glacier-pending segments is correct for "what is
	// readable now" but not stable: the recall completes on wall clock,
	// not on a version or generation bump, so it must never be cached.
	if db.cache != nil && st.GlacierPending == 0 {
		db.cache.put(key, out)
	}
	st.TotalWall = time.Since(t0)
	db.noteQuery(st)
	return out, st, nil
}

// noteQuery folds one execution's stats into the live obs instruments.
// The query path is heavyweight enough (microseconds to milliseconds)
// that a few counter adds and one histogram observation are noise.
func (db *DB) noteQuery(st QueryStats) {
	ins := db.instr.Load()
	if ins == nil {
		return
	}
	ins.queries.Inc()
	ins.cellsScanned.Add(st.CellsScanned)
	ins.cellsMatched.Add(st.CellsMatched)
	ins.segsScanned.Add(int64(st.SegmentsScanned))
	ins.segsPruned.Add(int64(st.SegmentsPruned))
	ins.coldSegsScanned.Add(int64(st.ColdSegmentsScanned))
	ins.coldSegsPruned.Add(int64(st.ColdSegmentsPruned))
	ins.coldRowGroupsScanned.Add(int64(st.ColdRowGroupsScanned))
	ins.coldRowGroupsPruned.Add(int64(st.ColdRowGroupsPruned))
	ins.glacierPending.Add(int64(st.GlacierPending))
	ins.glacierRecalls.Add(int64(st.GlacierRecalls))
	ins.queryLatency.Observe(st.TotalWall.Seconds())
}

// RunSerial is the retained single-threaded reference implementation of
// Run: per-cell time.Time checks, uncompiled filter matching, Go-map
// partials — folded shard by shard in the same deterministic order as
// the parallel engine. It exists so the property tests can assert the
// parallel engine is byte-identical, and so benchmarks can measure the
// speedup against the original scan. It never consults the result cache.
func (db *DB) RunSerial(q Query) (*schema.Frame, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	granNanos := int64(q.Granularity)
	groups := make(map[groupKey]*Cell)
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.RLock()
		chunks := make([]int64, 0, len(sh.segments))
		for k := range sh.segments {
			chunks = append(chunks, k)
		}
		sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
		partial := make(map[groupKey]*Cell)
		for _, chunkN := range chunks {
			seg := sh.segments[chunkN]
			segEnd := seg.start.Add(db.opts.SegmentDuration)
			if !seg.start.Before(q.To) || !segEnd.After(q.From) {
				continue // segment pruning by time chunk
			}
			for ci := range seg.cells.keys {
				key := seg.cells.keys[ci]
				ts := time.Unix(0, key.Ts).UTC()
				if ts.Before(q.From) || !ts.Before(q.To) {
					continue
				}
				if !matchFilters(key, q.Filters) {
					continue
				}
				gk := groupKey{ts: q.From.UnixNano()}
				if granNanos > 0 {
					gk.ts = key.Ts - floorMod(key.Ts, granNanos)
				}
				for i, d := range q.GroupBy {
					gk.dims[i] = key.dim(d)
				}
				g, ok := partial[gk]
				if !ok {
					g = &Cell{}
					partial[gk] = g
				}
				g.Merge(seg.cells.cells[ci])
			}
		}
		sh.mu.RUnlock()
		for gk, c := range partial {
			g, ok := groups[gk]
			if !ok {
				g = &Cell{}
				groups[gk] = g
			}
			g.Merge(*c)
		}
	}

	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ts != keys[j].ts {
			return keys[i].ts < keys[j].ts
		}
		for d := 0; d < len(q.GroupBy); d++ {
			if keys[i].dims[d] != keys[j].dims[d] {
				return keys[i].dims[d] < keys[j].dims[d]
			}
		}
		return false
	})

	out := schema.NewFrame(q.ResultSchema())
	for _, k := range keys {
		cell := groups[k]
		row := schema.Row{schema.TimeNanos(k.ts)}
		for i := range q.GroupBy {
			row = append(row, schema.Str(k.dims[i]))
		}
		row = append(row, schema.Float(cell.Value(q.Agg)))
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// matchFilters is the uncompiled filter check used by RunSerial.
func matchFilters(key RollupKey, filters map[string][]string) bool {
	for dim, accepted := range filters {
		v := key.dim(dim)
		ok := false
		for _, a := range accepted {
			if v == a {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TopNEntry is one row of a top-N result.
type TopNEntry struct {
	Dim   string
	Value float64
}

// topNWorse orders heap entries: a is worse than b when it aggregates
// lower, or ties and sorts later alphabetically (the old full-sort
// ordering was value descending, then dim ascending).
func topNWorse(a, b TopNEntry) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Dim > b.Dim
}

// TopN returns the n highest-aggregating values of one dimension over a
// time range — the Druid-style "which nodes drew the most power" query
// behind user-assistance triage. A bounded min-heap over the merged
// partials keeps selection O(groups·log n): TopN(q, dim, 10) over 10k
// dimension values never materializes a 10k-row frame.
func (db *DB) TopN(q Query, dim string, n int) ([]TopNEntry, error) {
	if !validDim(dim) {
		return nil, fmt.Errorf("%w: unknown top-n dimension %q", ErrBadQuery, dim)
	}
	q.GroupBy = []string{dim}
	q.Granularity = 0
	if err := q.validate(); err != nil {
		return nil, err
	}
	var st QueryStats
	p := Compile(q)
	total, ps, err := db.aggregate(&p, &st)
	defer db.putPartials(ps)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return []TopNEntry{}, nil
	}
	// Min-heap of the n best entries seen; the root is the worst keeper.
	heap := make([]TopNEntry, 0, n)
	for i := range total.slots {
		s := &total.slots[i]
		if !s.used {
			continue
		}
		e := TopNEntry{Dim: s.key.dims[0], Value: s.cell.Value(q.Agg)}
		if len(heap) < n {
			heap = append(heap, e)
			// Sift up: a child worse than its parent moves toward the root.
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !topNWorse(heap[c], heap[p]) {
					break
				}
				heap[p], heap[c] = heap[c], heap[p]
				c = p
			}
			continue
		}
		if !topNWorse(heap[0], e) {
			continue // not better than the worst keeper
		}
		heap[0] = e
		// Sift down: the replacement sinks below any worse child.
		for p := 0; ; {
			c := 2*p + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && topNWorse(heap[r], heap[c]) {
				c = r
			}
			if !topNWorse(heap[c], heap[p]) {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			p = c
		}
	}
	sort.Slice(heap, func(i, j int) bool { return topNWorse(heap[j], heap[i]) })
	return heap, nil
}

// Fingerprint returns the query's canonical identity string: semantically
// equal queries (same window, filters, group-by, aggregation, and
// granularity, regardless of value order) share a fingerprint. The result
// cache keys on it; the HTTP prepared-statement registry derives
// content-addressed handles from it.
func (q Query) Fingerprint() string { return q.fingerprint() }

// fingerprint canonicalizes a query for the result cache: filter values
// are length-prefixed and sorted per dimension so semantically equal
// queries share an entry regardless of map iteration or value order.
func (q Query) fingerprint() string {
	b := make([]byte, 0, 128)
	b = strconv.AppendInt(b, q.From.UnixNano(), 36)
	b = append(b, '|')
	b = strconv.AppendInt(b, q.To.UnixNano(), 36)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.Granularity), 36)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.Agg), 10)
	for _, d := range q.GroupBy {
		b = append(b, '|', 'g')
		b = append(b, d...)
	}
	for d := 0; d < len(dimNames); d++ {
		vals, ok := q.Filters[dimNames[d]]
		if !ok {
			continue
		}
		b = append(b, '|', 'f')
		b = strconv.AppendInt(b, int64(d), 10)
		sorted := append([]string(nil), vals...)
		sort.Strings(sorted)
		for _, v := range sorted {
			b = strconv.AppendInt(b, int64(len(v)), 36)
			b = append(b, ':')
			b = append(b, v...)
		}
	}
	return string(b)
}
