// Tiered federation: age-based offload of LAKE segments into columnar
// OCEAN objects, and the cold half of the query planner that folds those
// objects back into a query so callers never see the tier boundary.
//
// Offload extracts whole time chunks (all 16 stripes of a chunk at once)
// into one OCF object sorted by dimensions for zone-map and bloom
// clustering, plus explicit stripe and seq columns recording each cell's
// stripe and insertion position. At query time matched cold rows are
// re-sorted by (stripe, seq) and folded into the per-stripe partial
// tables before the hot scan runs — chunk-ascending, insertion-ordered,
// exactly the fold order of a store that never offloaded — so federated
// float accumulation is byte-identical to the all-hot reference.
//
// Pruning happens in four layers before any chunk is inflated:
// time range → per-segment zone maps + blooms (manifest, no object read)
// → per-row-group zone maps + blooms (file footer) → dictionary-id
// evaluation inside the columnar reader.
package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/archive"
	"odakit/internal/columnar"
	"odakit/internal/objstore"
	"odakit/internal/resilience"
	"odakit/internal/schema"
)

// ColdSchema is the layout of one offloaded segment object: the full
// rollup state of RollupSchema plus the (stripe, seq) fold coordinates
// that make federated accumulation order reproducible.
var ColdSchema = schema.New(
	schema.Field{Name: "stripe", Kind: schema.KindInt},
	schema.Field{Name: "seq", Kind: schema.KindInt},
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

// ColdTierConfig wires a DB to its OCEAN (and optionally GLACIER) tier.
type ColdTierConfig struct {
	// Store and Bucket locate the OCEAN objects; the bucket must exist.
	Store  *objstore.Store
	Bucket string
	// Prefix namespaces this DB's objects within the bucket (e.g.
	// "lake/"). The manifest lives at <Prefix>manifest and segment
	// objects under <Prefix>segments/.
	Prefix string
	// Glacier, when set, is consulted for segment objects missing from
	// the store (aged out by lifecycle rules): staged items are read,
	// everything else triggers a non-blocking recall and the query
	// reports the gap via QueryStats.GlacierPending / RecallWait.
	Glacier *archive.Archive
	// RowGroupRows is the OCF row-group size (default 4096). Smaller
	// groups prune finer; larger groups compress better.
	RowGroupRows int
	// DisablePruning starts the tier with pruning off (every segment and
	// row group decoded, filters applied row-exactly) — the baseline the
	// federation bench measures speedups against. Toggle live with
	// SetPruning.
	DisablePruning bool
	// Now is the clock used to compute recall waits (default time.Now);
	// tests running simulated archive clocks set it to match.
	Now func() time.Time
}

// coldDimMeta is one dimension's segment-level pruning state as stored
// in the manifest.
type coldDimMeta struct {
	Min   string `json:"min"`
	Max   string `json:"max"`
	Bloom []byte `json:"bloom,omitempty"`
}

// coldSegmentMeta is one offloaded chunk's manifest entry.
type coldSegmentMeta struct {
	Chunk int64  `json:"chunk"` // chunk start, unix nanos
	Key   string `json:"key"`   // object key within the bucket
	Cells int64  `json:"cells"` // rollup cells stored
	Rows  int64  `json:"rows"`  // raw observations the cells roll up
	Bytes int64  `json:"bytes"` // encoded object size
	MinTs int64  `json:"min_ts"`
	MaxTs int64  `json:"max_ts"`
	// Dims are per-dimension zone maps + bloom filters, indexed by the
	// fixed dimension slots (system, source, component, metric).
	Dims [4]coldDimMeta `json:"dims"`
}

// coldManifest is the persisted tier state: the segment list plus a
// generation counter the query-result cache keys on.
type coldManifest struct {
	Generation uint64            `json:"generation"`
	Segments   []coldSegmentMeta `json:"segments"`
}

// coldSegment is one manifest entry with its blooms decoded.
type coldSegment struct {
	meta   coldSegmentMeta
	blooms [4]*columnar.Bloom
}

// ColdTier is a DB's attached OCEAN/GLACIER storage. mu serializes
// offloads against federated scans: queries hold it shared for the whole
// cold-fold + hot-scan window, so an offload can never move a chunk
// between the two halves of one query.
type ColdTier struct {
	cfg     ColdTierConfig
	mu      sync.RWMutex
	segs    []*coldSegment // chunk-ascending, manifest order within a chunk
	gen     atomic.Uint64
	noPrune atomic.Bool
}

// manifestKey returns the tier's manifest object key.
func (ct *ColdTier) manifestKey() string { return ct.cfg.Prefix + "manifest" }

// now returns the tier clock.
func (ct *ColdTier) now() time.Time {
	if ct.cfg.Now != nil {
		return ct.cfg.Now()
	}
	return time.Now()
}

// SetPruning toggles segment/row-group pruning live; disabling it turns
// every federated query into the decode-everything baseline scan.
func (ct *ColdTier) SetPruning(enabled bool) { ct.noPrune.Store(!enabled) }

// Generation returns the tier's current offload generation. It advances
// on every successful Offload, and cache keys include it so results
// computed against different tier contents never alias.
func (ct *ColdTier) Generation() uint64 { return ct.gen.Load() }

// coldGeneration returns the attached tier's generation for cache keys
// (0 when no tier is attached — indistinguishable from a never-offloaded
// fresh tier, which has identical query results, so aliasing is safe).
func (db *DB) coldGeneration() uint64 {
	if ct := db.cold.Load(); ct != nil {
		return ct.gen.Load()
	}
	return 0
}

// ColdStats summarizes the attached tier.
type ColdStats struct {
	Segments   int
	Cells      int64
	Rows       int64
	Bytes      int64
	Generation uint64
}

// ColdStats returns tier totals (zero value when no tier is attached).
func (db *DB) ColdStats() ColdStats {
	ct := db.cold.Load()
	if ct == nil {
		return ColdStats{}
	}
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	st := ColdStats{Segments: len(ct.segs), Generation: ct.gen.Load()}
	for _, s := range ct.segs {
		st.Cells += s.meta.Cells
		st.Rows += s.meta.Rows
		st.Bytes += s.meta.Bytes
	}
	return st
}

// AttachColdTier connects a DB to its cold tier, rehydrating the segment
// manifest from the store so a restarted process sees prior offloads.
// Every subsequent query transparently federates across hot shards and
// the tier's segments.
func (db *DB) AttachColdTier(cfg ColdTierConfig) (*ColdTier, error) {
	if cfg.Store == nil || cfg.Bucket == "" {
		return nil, fmt.Errorf("tsdb: cold tier needs a store and bucket")
	}
	if cfg.RowGroupRows <= 0 {
		cfg.RowGroupRows = 4096
	}
	ct := &ColdTier{cfg: cfg}
	ct.noPrune.Store(cfg.DisablePruning)
	data, _, err := cfg.Store.Get(cfg.Bucket, ct.manifestKey())
	switch {
	case errors.Is(err, objstore.ErrNoObject):
		// Fresh tier.
	case err != nil:
		return nil, fmt.Errorf("tsdb: load cold manifest: %w", err)
	default:
		var m coldManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("tsdb: decode cold manifest: %w", err)
		}
		for i := range m.Segments {
			seg := &coldSegment{meta: m.Segments[i]}
			for d := range seg.meta.Dims {
				if b := seg.meta.Dims[d].Bloom; len(b) > 0 {
					bl, err := columnar.DecodeBloom(b)
					if err != nil {
						return nil, fmt.Errorf("tsdb: cold manifest bloom: %w", err)
					}
					seg.blooms[d] = bl
				}
			}
			ct.segs = append(ct.segs, seg)
		}
		// The manifest is persisted chunk-ascending; a stable sort keeps
		// same-chunk segments in offload order if one was hand-edited.
		sort.SliceStable(ct.segs, func(i, j int) bool {
			return ct.segs[i].meta.Chunk < ct.segs[j].meta.Chunk
		})
		ct.gen.Store(m.Generation)
	}
	db.cold.Store(ct)
	return ct, nil
}

// ColdTier returns the attached tier, or nil.
func (db *DB) ColdTier() *ColdTier { return db.cold.Load() }

// coldPutAttempts bounds retries of transient store faults on the
// offload write path and the query read path.
const coldPutAttempts = 4

func retryPut(store *objstore.Store, bucket, key string, data []byte) (objstore.ObjectInfo, error) {
	var info objstore.ObjectInfo
	var err error
	for attempt := 0; attempt < coldPutAttempts; attempt++ {
		info, err = store.Put(bucket, key, data)
		if err == nil || !resilience.IsTransient(err) {
			return info, err
		}
	}
	return info, err
}

// OffloadStats reports what one Offload call moved.
type OffloadStats struct {
	Segments int   // time chunks offloaded
	Cells    int64 // rollup cells written
	Rows     int64 // raw observations those cells roll up
	Bytes    int64 // encoded object bytes written
}

// Offload moves every segment whose time chunk ended before cutoff into
// the attached cold tier: the chunk's cells (all stripes) are encoded as
// one sorted OCF object with bloom filters, the manifest gains a zone-map
// + bloom entry for the segment, and the hot chunk is dropped. Queries
// are excluded for the duration, so a chunk is always visible in exactly
// one tier and a federated answer equals the never-offloaded one. A
// store failure rolls the in-flight chunk back into the hot shards.
func (db *DB) Offload(cutoff time.Time) (OffloadStats, error) {
	var st OffloadStats
	ct := db.cold.Load()
	if ct == nil {
		return st, fmt.Errorf("tsdb: no cold tier attached")
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()

	// Chunks whose end precedes the cutoff, oldest first.
	chunkSet := make(map[int64]struct{})
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.RLock()
		for k, seg := range sh.segments {
			if seg.start.Add(db.opts.SegmentDuration).Before(cutoff) {
				chunkSet[k] = struct{}{}
			}
		}
		sh.mu.RUnlock()
	}
	chunks := make([]int64, 0, len(chunkSet))
	for k := range chunkSet {
		chunks = append(chunks, k)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })

	for _, chunkN := range chunks {
		if err := db.offloadChunk(ct, chunkN, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// coldCell is one cell extracted for offload.
type coldCell struct {
	stripe int32
	seq    int32
	key    RollupKey
	cell   Cell
}

// offloadChunk moves one time chunk into the tier; ct.mu must be held
// exclusively.
func (db *DB) offloadChunk(ct *ColdTier, chunkN int64, st *OffloadStats) (err error) {
	// Extract the chunk's segments from every stripe. Extraction (not a
	// read-only snapshot) keeps a concurrent insert from landing between
	// snapshot and drop and being lost; queries are blocked on ct.mu, and
	// a failure below re-imports the extracted segments verbatim.
	var extracted [shardCount]*segment
	var cells []coldCell
	var rawRows int64
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		seg := sh.segments[chunkN]
		if seg != nil {
			delete(sh.segments, chunkN)
			sh.version.Add(1)
		}
		sh.mu.Unlock()
		extracted[si] = seg
		if seg == nil {
			continue
		}
		rawRows += seg.rows
		for i := range seg.cells.keys {
			cells = append(cells, coldCell{
				stripe: int32(si), seq: int32(i),
				key: seg.cells.keys[i], cell: seg.cells.cells[i],
			})
		}
	}
	defer func() {
		if err == nil {
			return
		}
		// Roll back: put the extracted segments back so the data stays
		// queryable in the hot tier.
		for si, seg := range extracted {
			if seg == nil {
				continue
			}
			sh := &db.shards[si]
			sh.mu.Lock()
			if cur, ok := sh.segments[chunkN]; ok {
				// A concurrent insert re-created the chunk: merge the
				// extracted cells into it rather than dropping either side.
				for i := range seg.cells.keys {
					k := seg.cells.keys[i]
					h := cellHash(seriesHash(k.Component, k.Metric), k.Ts)
					cur.cells.cell(h, k).Merge(seg.cells.cells[i])
				}
				cur.rows += seg.rows
			} else {
				sh.segments[chunkN] = seg
			}
			sh.version.Add(1)
			sh.mu.Unlock()
		}
	}()
	if len(cells) == 0 {
		return nil
	}

	// Sort by dimensions for zone-map/bloom clustering; (stripe, seq)
	// ride along as columns so queries can restore fold order.
	sort.Slice(cells, func(i, j int) bool {
		a, b := &cells[i].key, &cells[j].key
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.System != b.System {
			return a.System < b.System
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if cells[i].stripe != cells[j].stripe {
			return cells[i].stripe < cells[j].stripe
		}
		return cells[i].seq < cells[j].seq
	})

	meta := coldSegmentMeta{Chunk: chunkN, Cells: int64(len(cells)), Rows: rawRows}
	f := schema.NewFrame(ColdSchema)
	var distinct [4]map[string]struct{}
	for d := range distinct {
		distinct[d] = make(map[string]struct{})
	}
	for i := range cells {
		c := &cells[i]
		if i == 0 || c.key.Ts < meta.MinTs {
			meta.MinTs = c.key.Ts
		}
		if i == 0 || c.key.Ts > meta.MaxTs {
			meta.MaxTs = c.key.Ts
		}
		for d := 0; d < 4; d++ {
			v := c.key.dimAt(d)
			distinct[d][v] = struct{}{}
			if i == 0 || v < meta.Dims[d].Min {
				meta.Dims[d].Min = v
			}
			if i == 0 || v > meta.Dims[d].Max {
				meta.Dims[d].Max = v
			}
		}
		row := schema.Row{
			schema.Int(int64(c.stripe)), schema.Int(int64(c.seq)),
			schema.TimeNanos(c.key.Ts), schema.Str(c.key.System),
			schema.Str(c.key.Source), schema.Str(c.key.Component),
			schema.Str(c.key.Metric), schema.Int(c.cell.Count),
			schema.Float(c.cell.Sum), schema.Float(c.cell.Min),
			schema.Float(c.cell.Max), schema.Float(c.cell.Last),
			schema.TimeNanos(c.cell.LastTs),
		}
		if err := f.AppendRow(row); err != nil {
			return err
		}
	}
	seg := &coldSegment{meta: meta}
	for d := 0; d < 4; d++ {
		bl := columnar.NewBloom(len(distinct[d]))
		for v := range distinct[d] {
			bl.Insert(columnar.BloomHash(v))
		}
		seg.blooms[d] = bl
		seg.meta.Dims[d].Bloom = columnar.EncodeBloom(bl)
	}

	data, err := columnar.Encode(f, columnar.WriterOptions{
		RowGroupRows: ct.cfg.RowGroupRows,
		Compression:  columnar.CompressFlate,
		BloomColumns: dimNames,
	})
	if err != nil {
		return err
	}
	seg.meta.Bytes = int64(len(data))
	// The sequence suffix keeps keys unique when late-arriving data makes
	// the same chunk offload twice.
	seg.meta.Key = fmt.Sprintf("%ssegments/%020d-%06d.ocf", ct.cfg.Prefix, chunkN, len(ct.segs))
	if _, err := retryPut(ct.cfg.Store, ct.cfg.Bucket, seg.meta.Key, data); err != nil {
		return fmt.Errorf("tsdb: offload put: %w", err)
	}
	ct.segs = append(ct.segs, seg)
	sort.SliceStable(ct.segs, func(i, j int) bool { return ct.segs[i].meta.Chunk < ct.segs[j].meta.Chunk })
	nextGen := ct.gen.Load() + 1
	if err := ct.persistManifest(nextGen); err != nil {
		ct.segs = removeSegment(ct.segs, seg)
		return fmt.Errorf("tsdb: offload manifest: %w", err)
	}
	ct.gen.Store(nextGen)
	st.Segments++
	st.Cells += seg.meta.Cells
	st.Rows += seg.meta.Rows
	st.Bytes += seg.meta.Bytes
	if ins := db.instr.Load(); ins != nil {
		ins.offloadSegments.Inc()
		ins.offloadCells.Add(seg.meta.Cells)
		ins.offloadBytes.Add(seg.meta.Bytes)
	}
	return nil
}

func removeSegment(segs []*coldSegment, target *coldSegment) []*coldSegment {
	out := segs[:0]
	for _, s := range segs {
		if s != target {
			out = append(out, s)
		}
	}
	return out
}

// persistManifest writes the tier state to the store; ct.mu must be held.
func (ct *ColdTier) persistManifest(gen uint64) error {
	m := coldManifest{Generation: gen, Segments: make([]coldSegmentMeta, len(ct.segs))}
	for i, s := range ct.segs {
		m.Segments[i] = s.meta
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	_, err = retryPut(ct.cfg.Store, ct.cfg.Bucket, ct.manifestKey(), data)
	return err
}

// filterValues returns a compiled filter's candidate values.
func filterValues(f *dimFilter) []string {
	if f.set == nil {
		return []string{f.single}
	}
	vals := make([]string, 0, len(f.set))
	for v := range f.set {
		vals = append(vals, v)
	}
	return vals
}

// mayMatch reports whether the segment can contain cells satisfying the
// query's filters, using the manifest's per-dimension zone maps and
// bloom filters.
func (s *coldSegment) mayMatch(p *Plan) bool {
	for i := range p.filters {
		f := &p.filters[i]
		d := &s.meta.Dims[f.dim]
		any := false
		for _, v := range filterValues(f) {
			if v < d.Min || v > d.Max {
				continue
			}
			if !s.blooms[f.dim].MayContain(columnar.BloomHash(v)) {
				continue
			}
			any = true
			break
		}
		if !any {
			return false
		}
	}
	return true
}

// scanCold folds every surviving cold segment into the per-stripe
// partial tables; ct.mu must be held (shared) by the caller across the
// subsequent hot scan too.
func (ct *ColdTier) scanCold(p *Plan, st *QueryStats, ps *partialSet) error {
	noPrune := ct.noPrune.Load()
	for _, seg := range ct.segs {
		if !noPrune {
			if seg.meta.MinTs >= p.toN || seg.meta.MaxTs < p.fromN {
				st.ColdSegmentsPruned++
				continue
			}
			if !seg.mayMatch(p) {
				st.ColdSegmentsPruned++
				continue
			}
		}
		if err := ct.scanSegment(seg, p, st, ps, noPrune); err != nil {
			return err
		}
	}
	return nil
}

// getObject fetches a segment object, retrying transient faults. A nil
// data with nil error means the object has aged into GLACIER and is not
// staged yet — the segment is skipped and the gap reported in st.
func (ct *ColdTier) getObject(key string, st *QueryStats) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < coldPutAttempts; attempt++ {
		data, _, err := ct.cfg.Store.Get(ct.cfg.Bucket, key)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !resilience.IsTransient(err) {
			break
		}
	}
	if errors.Is(lastErr, objstore.ErrNoObject) && ct.cfg.Glacier != nil {
		return ct.glacierFetch(key, st)
	}
	return nil, lastErr
}

// glacierFetch resolves a segment that lifecycle rules moved to the
// archive: staged items are read back; otherwise a recall is kicked off
// (or its progress observed) without blocking, and the caller skips the
// segment this time around.
func (ct *ColdTier) glacierFetch(key string, st *QueryStats) ([]byte, error) {
	g := ct.cfg.Glacier
	gkey := ct.cfg.Bucket + "/" + key
	noteWait := func(ready time.Time) {
		st.GlacierPending++
		if w := ready.Sub(ct.now()); w > st.RecallWait {
			st.RecallWait = w
		}
	}
	rs, err := g.Status(gkey)
	if err != nil {
		return nil, fmt.Errorf("tsdb: cold segment %s in neither store nor archive: %w", key, err)
	}
	st.GlacierSegments++
	switch rs.State {
	case archive.RecallStaged:
		return g.Read(gkey)
	case archive.RecallPending:
		noteWait(rs.Ready)
		return nil, nil
	default: // RecallNone: kick off the recall, answer without the segment
		ready, err := g.Recall(gkey)
		if err != nil {
			return nil, err
		}
		st.GlacierRecalls++
		noteWait(ready)
		return nil, nil
	}
}

// coldRows is one cold segment's decoded cells, staged for folding:
// keys and cells in the form the fold consumes, plus the (stripe, seq)
// coordinates that restore the hot tier's fold order. It sorts by those
// coordinates.
type coldRows struct {
	stripe, seq []int64
	keys        []RollupKey
	cells       []Cell
}

func (r *coldRows) Len() int { return len(r.keys) }

func (r *coldRows) Less(i, j int) bool {
	if r.stripe[i] != r.stripe[j] {
		return r.stripe[i] < r.stripe[j]
	}
	return r.seq[i] < r.seq[j]
}

func (r *coldRows) Swap(i, j int) {
	r.stripe[i], r.stripe[j] = r.stripe[j], r.stripe[i]
	r.seq[i], r.seq[j] = r.seq[j], r.seq[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.cells[i], r.cells[j] = r.cells[j], r.cells[i]
}

// scanSegment scans one segment object with predicate + projection
// pushdown and folds the matches into ps in (stripe, seq) order.
func (ct *ColdTier) scanSegment(seg *coldSegment, p *Plan, st *QueryStats, ps *partialSet, noPrune bool) error {
	data, err := ct.getObject(seg.meta.Key, st)
	if err != nil {
		return fmt.Errorf("tsdb: cold segment %s: %w", seg.meta.Key, err)
	}
	if data == nil {
		return nil // awaiting GLACIER recall; reported in st
	}
	fr, err := columnar.NewFileReader(data)
	if err != nil {
		return fmt.Errorf("tsdb: cold segment %s: %w", seg.meta.Key, err)
	}

	cols, preds := coldPlan(p, noPrune)
	res, err := fr.ScanColumns(cols, preds...)
	if err != nil {
		return fmt.Errorf("tsdb: cold segment %s: %w", seg.meta.Key, err)
	}
	st.ColdSegmentsScanned++
	st.ColdRowGroupsScanned += res.GroupsScanned - res.GroupsDictSkipped
	st.ColdRowGroupsPruned += res.GroupsTotal - res.GroupsScanned + res.GroupsDictSkipped

	f := res.Frame
	n := f.Len()
	if n == 0 {
		return nil
	}
	sch := f.Schema()
	col := func(name string) *schema.Column {
		i, ok := sch.Index(name)
		if !ok {
			return nil
		}
		return f.Col(i)
	}
	ints := func(name string) []int64 {
		if c := col(name); c != nil {
			return c.Ints()
		}
		return nil
	}
	floats := func(name string) []float64 {
		if c := col(name); c != nil {
			return c.Floats()
		}
		return nil
	}
	strs := func(name string) []string {
		if c := col(name); c != nil {
			return c.Strs()
		}
		return nil
	}
	bucketC, countC := ints("bucket"), ints("count")
	sumC, minC, maxC, lastC := floats("sum"), floats("min"), floats("max"), floats("last")
	lastTsC := ints("last_ts")
	sysC, srcC, compC, metC := strs("system"), strs("source"), strs("component"), strs("metric")

	// stripe and seq are decoded columns the frame owns; sorting permutes
	// them in place along with the staged keys and cells.
	rows := coldRows{
		stripe: ints("stripe"), seq: ints("seq"),
		keys: make([]RollupKey, n), cells: make([]Cell, n),
	}
	for r := 0; r < n; r++ {
		if s := rows.stripe[r]; s < 0 || s >= shardCount {
			return fmt.Errorf("tsdb: cold segment %s: stripe %d out of range", seg.meta.Key, s)
		}
		k, c := &rows.keys[r], &rows.cells[r]
		k.Ts = bucketC[r]
		if sysC != nil {
			k.System = sysC[r]
		}
		if srcC != nil {
			k.Source = srcC[r]
		}
		if compC != nil {
			k.Component = compC[r]
		}
		if metC != nil {
			k.Metric = metC[r]
		}
		c.Count = countC[r]
		if sumC != nil {
			c.Sum = sumC[r]
		}
		if minC != nil {
			c.Min = minC[r]
		}
		if maxC != nil {
			c.Max = maxC[r]
		}
		if lastC != nil {
			c.Last = lastC[r]
		}
		if lastTsC != nil {
			c.LastTs = lastTsC[r]
		}
	}
	// Restore per-stripe insertion order so folding reproduces the hot
	// path's accumulation order exactly.
	sort.Sort(&rows)
	// With pushdown the predicates already filtered rows exactly, and
	// the projection dropped filter-only dimensions, so the fold must not
	// filter again; without it, the fold applies range and filters.
	fold := *p
	if !noPrune {
		fold.filters = nil
	}
	for lo := 0; lo < n; {
		s := rows.stripe[lo]
		hi := lo + 1
		for hi < n && rows.stripe[hi] == s {
			hi++
		}
		run := CellTable{keys: rows.keys[lo:hi], cells: rows.cells[lo:hi]}
		st.ColdCells += fold.Fold(&ps.tables[s], &run, false)
		lo = hi
	}
	return nil
}

// coldPlan computes the projection and pushdown predicates for one
// query: always the fold coordinates plus count (Merge ignores cells
// with count 0), the grouped dimensions, and only the aggregation-state
// columns the query's agg actually reads. With pruning on, the time
// range and every dimension filter travel as predicates, so whole files
// and row groups are skipped before decode; with pruning off, everything
// is decoded and filtered row-exactly in the fold loop.
func coldPlan(p *Plan, noPrune bool) ([]string, []columnar.Predicate) {
	if noPrune {
		cols := make([]string, ColdSchema.Len())
		for i := range cols {
			cols[i] = ColdSchema.Field(i).Name
		}
		return cols, nil
	}
	cols := []string{"stripe", "seq", "bucket", "count"}
	for _, d := range p.groupDims {
		cols = append(cols, dimNames[d])
	}
	switch p.agg {
	case AggAvg, AggSum:
		cols = append(cols, "sum")
	case AggMin:
		cols = append(cols, "min")
	case AggMax:
		cols = append(cols, "max")
	case AggLast:
		cols = append(cols, "last", "last_ts")
	}
	preds := []columnar.Predicate{{
		Col: "bucket",
		Min: schema.TimeNanos(p.fromN),
		Max: schema.TimeNanos(p.toN - 1),
	}}
	for i := range p.filters {
		f := &p.filters[i]
		vals := filterValues(f)
		in := make([]schema.Value, len(vals))
		for j, v := range vals {
			in[j] = schema.Str(v)
		}
		preds = append(preds, columnar.Predicate{Col: dimNames[f.dim], In: in})
	}
	return cols, preds
}
