// The rollup-cell kernel: the one definition of a rollup cell, the
// tables that hold cells and output groups, and the fold → stripe-order
// merge → sorted emit pipeline. Every aggregating read path runs it: the
// hot shard scan behind Run, TopN and StripePartial, the cold-tier fold,
// the scatter-gather merge (MergeStripePartials) and the continuous-query
// views of internal/cq. Float accumulation is order-sensitive, so these
// paths agree bit for bit because they share this code, not because
// copies of it happen to match. RunSerial alone keeps its own scan,
// merge and emit loops: it is the independent reference the property
// tests compare the kernel against.
package tsdb

import (
	"math"
	"sort"
	"time"

	"odakit/internal/schema"
)

// RollupKey identifies one rollup cell: the epoch-anchored rollup bucket
// and the series it belongs to.
type RollupKey struct {
	Ts                                int64 // rollup bucket start, unix nanos
	System, Source, Component, Metric string
}

func (k RollupKey) dim(name string) string {
	switch name {
	case DimSystem:
		return k.System
	case DimSource:
		return k.Source
	case DimComponent:
		return k.Component
	case DimMetric:
		return k.Metric
	default:
		return ""
	}
}

// dimAt returns the key's value for a dimension slot (dimNames order).
func (k *RollupKey) dimAt(idx int) string {
	switch idx {
	case 0:
		return k.System
	case 1:
		return k.Source
	case 2:
		return k.Component
	default:
		return k.Metric
	}
}

// dimIndex maps a dimension name onto its fixed slot (0..3). Valid names
// only; callers validate first.
func dimIndex(d string) int {
	switch d {
	case DimSystem:
		return 0
	case DimSource:
		return 1
	case DimComponent:
		return 2
	default: // DimMetric
		return 3
	}
}

// BucketStart returns the start of the epoch-anchored bucket of the
// given width (nanos) holding ts — the alignment of rollup buckets, time
// chunks and granularity buckets alike, correct before 1970 too.
func BucketStart(ts, width int64) int64 { return ts - floorMod(ts, width) }

// floorMod returns x mod m with the sign of m (m > 0), so bucket
// alignment is correct for timestamps before the epoch too.
func floorMod(x, m int64) int64 {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// Cell is one rolled-up cell: enough state for every supported
// aggregation without keeping raw samples.
type Cell struct {
	Count    int64
	Sum      float64
	Min, Max float64
	LastTs   int64 // timestamp of Last, unix nanos
	Last     float64
}

// Add folds one sample into the cell. An empty cell always takes the
// sample as its last value: its zero LastTs must not outrank samples
// from before 1970.
func (c *Cell) Add(tsNanos int64, v float64) {
	empty := c.Count == 0
	if empty || v < c.Min {
		c.Min = v
	}
	if empty || v > c.Max {
		c.Max = v
	}
	c.Count++
	c.Sum += v
	if empty || tsNanos >= c.LastTs {
		c.LastTs, c.Last = tsNanos, v
	}
}

// Merge folds another cell's state into c; an empty o is a no-op, and an
// empty c takes o's last value whatever its timestamp.
func (c *Cell) Merge(o Cell) {
	if o.Count == 0 {
		return
	}
	empty := c.Count == 0
	if empty || o.Min < c.Min {
		c.Min = o.Min
	}
	if empty || o.Max > c.Max {
		c.Max = o.Max
	}
	c.Count += o.Count
	c.Sum += o.Sum
	if empty || o.LastTs >= c.LastTs {
		c.LastTs, c.Last = o.LastTs, o.Last
	}
}

// Value finalizes the cell under one aggregation.
func (c *Cell) Value(kind AggKind) float64 {
	switch kind {
	case AggSum:
		return c.Sum
	case AggMin:
		return c.Min
	case AggMax:
		return c.Max
	case AggCount:
		return float64(c.Count)
	case AggLast:
		return c.Last
	default: // AggAvg
		if c.Count == 0 {
			return 0
		}
		return c.Sum / float64(c.Count)
	}
}

// CellTable maps RollupKey to Cell in insertion order. It replaces a Go
// map on the ingest hot path: the probe hash is derived from the series
// hash already computed for shard striping, and the stored hash makes
// misses cheap. Layout is structure-of-arrays: a compact open-addressed
// index (8 bytes per entry) resolves a key to a position in dense,
// insertion-ordered key and cell arrays. Folds stream sequentially over
// the packed keys and touch aggregation state only for cells that match
// — roughly halving scan memory traffic versus keys and cells
// interleaved in 128-byte hash slots, with no change to the probe cost.
// The insertion order is the fold order, which is what makes a table's
// fold reproducible wherever the table is rebuilt in the same order.
type CellTable struct {
	index []cellRef   // open-addressed probe index
	keys  []RollupKey // dense, insertion order
	cells []Cell      // parallel to keys
}

// cellRef is one index entry: the probe hash plus a 1-based position in
// the dense arrays (0 marks an empty slot).
type cellRef struct {
	hash uint32
	idx  int32
}

// Len returns the live cell count.
func (t *CellTable) Len() int { return len(t.keys) }

// Keys returns the cell keys in insertion order. Read-only.
func (t *CellTable) Keys() []RollupKey { return t.keys }

// Cells returns the cells, parallel to Keys. Read-only.
func (t *CellTable) Cells() []Cell { return t.cells }

// cellHash mixes the rollup bucket into the series hash. bucketN is in
// nanos so consecutive buckets differ only in high bits; the shift brings
// them down and the odd multiplier spreads them.
func cellHash(seriesH uint32, bucketN int64) uint32 {
	return (seriesH ^ uint32(uint64(bucketN)>>30)) * 2654435761
}

// Cell returns the cell for key, appending an empty one if absent. The
// pointer is only valid until the next Cell call.
func (t *CellTable) Cell(key RollupKey) *Cell {
	return t.cell(cellHash(seriesHash(key.Component, key.Metric), key.Ts), key)
}

// cell is Cell with the probe hash precomputed: h must be cellHash of
// the key's series and bucket. The returned pointer is only valid until
// the next cell call — a later insert may grow the arrays.
func (t *CellTable) cell(h uint32, key RollupKey) *Cell {
	if len(t.keys) >= len(t.index)*3/4 { // covers the empty table too
		t.grow()
	}
	mask := uint32(len(t.index) - 1)
	i := h & mask
	for {
		r := t.index[i]
		if r.idx == 0 {
			t.keys = append(t.keys, key)
			t.cells = append(t.cells, Cell{})
			t.index[i] = cellRef{hash: h, idx: int32(len(t.keys))}
			return &t.cells[len(t.cells)-1]
		}
		if r.hash == h && t.keys[r.idx-1] == key {
			return &t.cells[r.idx-1]
		}
		i = (i + 1) & mask
	}
}

func (t *CellTable) grow() {
	newCap := 2 * len(t.index)
	if newCap == 0 {
		newCap = 64
	}
	old := t.index
	t.index = make([]cellRef, newCap)
	mask := uint32(newCap - 1)
	for _, r := range old {
		if r.idx == 0 {
			continue
		}
		i := r.hash & mask
		for t.index[i].idx != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = r
	}
}

// clampNanos converts a bound to unix nanos with saturation, so times
// outside the representable nano range (e.g. the zero time.Time) compare
// like their time.Time counterparts instead of wrapping.
func clampNanos(t time.Time) int64 {
	if t.Before(minNanoTime) {
		return math.MinInt64
	}
	if t.After(maxNanoTime) {
		return math.MaxInt64
	}
	return t.UnixNano()
}

var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

// dimFilter is one compiled dimension constraint. Single-value filters
// (the common dashboard shape: one metric) compare directly; multi-value
// filters hit a lookup set.
type dimFilter struct {
	dim    int
	single string
	set    map[string]struct{} // nil when single applies
}

// Plan is a compiled query: bucket range, granularity, dimension
// filters, group-by slots and aggregation, shared read-only by every
// fold worker. Compiling once per query replaces the per-cell map
// iteration and nested linear scan of matchFilters.
type Plan struct {
	fromN, toN  int64
	collapsedTs int64 // output ts when granN == 0
	granN       int64
	filters     []dimFilter
	groupBy     []string
	groupDims   []int // dimension slot per GroupBy position
	agg         AggKind
}

// Compile builds q's plan. It does not validate q; callers that take
// queries from outside validate first.
func Compile(q Query) Plan {
	p := Plan{
		fromN:       clampNanos(q.From),
		toN:         clampNanos(q.To),
		granN:       int64(q.Granularity),
		collapsedTs: q.From.UnixNano(),
		groupBy:     q.GroupBy,
		agg:         q.Agg,
	}
	for d := 0; d < len(dimNames); d++ {
		vals, ok := q.Filters[dimNames[d]]
		if !ok {
			continue
		}
		f := dimFilter{dim: d}
		if len(vals) == 1 {
			f.single = vals[0]
		} else {
			f.set = make(map[string]struct{}, len(vals))
			for _, v := range vals {
				f.set[v] = struct{}{}
			}
		}
		p.filters = append(p.filters, f)
	}
	p.groupDims = make([]int, len(q.GroupBy))
	for i, d := range q.GroupBy {
		p.groupDims[i] = dimIndex(d)
	}
	return p
}

// Over returns the plan over the bucket range [fromN, toN), with
// granularity 0 collapsing onto fromN — how a continuous-query window
// re-folds one compiled plan as it slides.
func (p Plan) Over(fromN, toN int64) Plan {
	p.fromN, p.toN, p.collapsedTs = fromN, toN, fromN
	return p
}

// Match reports whether a cell's key passes every compiled filter.
func (p *Plan) Match(k *RollupKey) bool {
	for i := range p.filters {
		f := &p.filters[i]
		v := k.dimAt(f.dim)
		if f.set == nil {
			if v != f.single {
				return false
			}
		} else if _, ok := f.set[v]; !ok {
			return false
		}
	}
	return true
}

// groupHash hashes the output group (bucket ts + grouped dims) for the
// group table. Only the dimensions the plan groups by are hashed — a Go
// map over groupKey would hash all four plus padding.
func (p *Plan) groupHash(ts int64, k *RollupKey) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for _, d := range p.groupDims {
		s := k.dimAt(d)
		for j := 0; j < len(s); j++ {
			h = (h ^ uint32(s[j])) * prime32
		}
		h = (h ^ 0xff) * prime32
	}
	return (h ^ uint32(uint64(ts)>>30) ^ uint32(uint64(ts))) * 2654435761
}

// Fold merges every cell of t whose bucket lies in the plan's range and
// whose key passes its filters into its output group in gt, in t's
// insertion order, and returns how many cells matched. contained
// promises every cell is in range (its time chunk lies wholly inside
// it), which skips the per-cell time check.
func (p *Plan) Fold(gt *GroupTable, t *CellTable, contained bool) int64 {
	noFilters := len(p.filters) == 0
	keys := t.keys
	var matched int64
	for i := range keys {
		key := &keys[i]
		ts := key.Ts
		if !contained && (ts < p.fromN || ts >= p.toN) {
			continue
		}
		if !noFilters && !p.Match(key) {
			continue
		}
		matched++
		gk := groupKey{ts: p.collapsedTs}
		if p.granN > 0 {
			gk.ts = ts - floorMod(ts, p.granN)
		}
		for gi, d := range p.groupDims {
			gk.dims[gi] = key.dimAt(d)
		}
		gt.cell(p.groupHash(gk.ts, key), gk).Merge(t.cells[i])
	}
	return matched
}

type groupKey struct {
	ts   int64
	dims [4]string // aligned with the plan's GroupBy, max 4 dims
}

// GroupTable is the open-addressed partial-aggregation table a fold
// writes output groups into — the read side's counterpart of CellTable.
// Group cells live inline in the slots; one table per stripe means no
// locks and no shared state between fold workers.
type GroupTable struct {
	slots []groupSlot
	n     int
}

type groupSlot struct {
	hash uint32
	used bool
	key  groupKey
	cell Cell
}

// cell returns the aggregation cell for key, creating it if absent. The
// pointer is only valid until the next cell call (growth moves slots).
func (t *GroupTable) cell(h uint32, key groupKey) *Cell {
	if t.n >= len(t.slots)*3/4 {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for {
		s := &t.slots[i]
		if !s.used {
			s.used = true
			s.hash = h
			s.key = key
			s.cell = Cell{} // slots are pooled; clear prior query's state
			t.n++
			return &s.cell
		}
		if s.hash == h && s.key == key {
			return &s.cell
		}
		i = (i + 1) & mask
	}
}

func (t *GroupTable) grow() {
	newCap := 2 * len(t.slots)
	if newCap == 0 {
		newCap = 16
	}
	old := t.slots
	t.slots = make([]groupSlot, newCap)
	mask := uint32(newCap - 1)
	for oi := range old {
		s := &old[oi]
		if !s.used {
			continue
		}
		i := s.hash & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
	}
}

func (t *GroupTable) reset() {
	for i := range t.slots {
		t.slots[i].used = false
	}
	t.n = 0
}

// MergeStripes folds per-stripe partial tables, given in ascending
// stripe order, into one: the fixed fold order that keeps float
// accumulation deterministic and identical to RunSerial. The first
// non-empty table doubles as the accumulator, so a result living on one
// stripe merges for free — the inputs are consumed. Nil entries count
// as empty.
func MergeStripes(parts []*GroupTable) *GroupTable {
	var total *GroupTable
	for _, p := range parts {
		if p == nil || p.n == 0 {
			continue
		}
		if total == nil {
			total = p
			continue
		}
		for i := range p.slots {
			if sl := &p.slots[i]; sl.used {
				total.cell(sl.hash, sl.key).Merge(sl.cell)
			}
		}
	}
	if total == nil {
		return &GroupTable{}
	}
	return total
}

// Emit returns gt's groups as a result frame in the plan's ResultSchema
// shape, rows sorted by (ts, dims). Group keys are unique, so the order
// is total.
func (p *Plan) Emit(gt *GroupTable) *schema.Frame {
	groups := make([]*groupSlot, 0, gt.n)
	for i := range gt.slots {
		if s := &gt.slots[i]; s.used {
			groups = append(groups, s)
		}
	}
	nDims := len(p.groupDims)
	sort.Slice(groups, func(i, j int) bool {
		a, b := &groups[i].key, &groups[j].key
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		for d := 0; d < nDims; d++ {
			if a.dims[d] != b.dims[d] {
				return a.dims[d] < b.dims[d]
			}
		}
		return false
	})
	out := schema.NewFrame(Query{GroupBy: p.groupBy}.ResultSchema())
	row := make(schema.Row, 0, nDims+2)
	for _, g := range groups {
		row = row[:0]
		row = append(row, schema.TimeNanos(g.key.ts))
		for d := 0; d < nDims; d++ {
			row = append(row, schema.Str(g.key.dims[d]))
		}
		row = append(row, schema.Float(g.cell.Value(p.agg)))
		if err := out.AppendRow(row); err != nil {
			panic(err) // rows are built from the frame's own schema
		}
	}
	return out
}
