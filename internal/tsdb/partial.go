// Scatter-gather surface for the cluster's query router: a query can be
// executed one lock stripe at a time (StripePartial), shipped across
// nodes, and folded back together (MergeStripePartials) with results
// byte-identical to a single-node Run. The identity holds because float
// accumulation order only matters within one output group, every group's
// cells live on exactly one stripe (striping hashes the same dimensions
// the group key is built from, component+metric — and the dimensions a
// group does not include are aggregated over cells that still fold in
// stripe-major, chunk-ascending, insertion order), and the merge folds
// partials in the same fixed stripe order 0..NumStripes-1 that Run's
// in-process merge uses. Scan, merge and emit are the shared kernel
// (kernel.go), the very code Run executes.
package tsdb

import (
	"fmt"
	"sort"

	"odakit/internal/schema"
)

// StripeScanStats counts what one stripe-local scan did; the router sums
// them into a cluster-level QueryStats.
type StripeScanStats struct {
	SegmentsScanned int
	SegmentsPruned  int
	CellsScanned    int64
	CellsMatched    int64
}

// StripePartial is one stripe's partial-aggregation result: the output
// groups that stripe's cells contribute to, with full aggregation state
// so any AggKind can be finalized after the merge. Determinism comes
// from per-group accumulation order, which the stripe scan fixes at
// chunk-ascending, insertion order.
type StripePartial struct {
	Stripe int
	Stats  StripeScanStats
	groups GroupTable
}

// Groups returns how many output groups the partial carries.
func (sp *StripePartial) Groups() int { return sp.groups.n }

// StripePartial executes q against a single lock stripe of the hot tier
// and returns that stripe's partial aggregation. The cold tier is not
// consulted: clustered nodes serve the hot tier and leave OCEAN/GLACIER
// federation to the single-facility query path.
func (db *DB) StripePartial(q Query, stripe int) (*StripePartial, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if stripe < 0 || stripe >= NumStripes {
		return nil, fmt.Errorf("%w: stripe %d out of range", ErrBadQuery, stripe)
	}
	p := Compile(q)
	sp := &StripePartial{Stripe: stripe}
	ss := db.scanShard(stripe, &p, &sp.groups)
	sp.Stats = StripeScanStats{
		SegmentsScanned: ss.segsScanned,
		SegmentsPruned:  ss.segsPruned,
		CellsScanned:    ss.cellsScanned,
		CellsMatched:    ss.cellsMatched,
	}
	return sp, nil
}

// MergeStripePartials folds stripe partials — which must be supplied in
// ascending stripe order, Run's fixed fold order — into the final result
// frame, sorted and emitted exactly like Run. The partials are consumed.
// Nil entries (stripes with no live owner already reported as errors by
// the router) are rejected: a silent gap would silently drop that
// stripe's groups.
func MergeStripePartials(q Query, parts []*StripePartial) (*schema.Frame, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	tables := make([]*GroupTable, len(parts))
	prev := -1
	for i, sp := range parts {
		if sp == nil {
			return nil, fmt.Errorf("%w: nil stripe partial", ErrBadQuery)
		}
		if sp.Stripe <= prev {
			return nil, fmt.Errorf("%w: stripe partials out of order (%d after %d)", ErrBadQuery, sp.Stripe, prev)
		}
		prev = sp.Stripe
		tables[i] = &sp.groups
	}
	p := Compile(q)
	return p.Emit(MergeStripes(tables)), nil
}

// ExportStripes serializes every cell of the given stripes as a
// RollupSchema frame in stripe-major, chunk-ascending, insertion order —
// the exact fold order of a stripe scan. Unlike Export (which sorts for
// the OCEAN offload format), importing this frame into a fresh DB via
// ImportRollups rebuilds each (stripe, chunk) cell table with identical
// insertion order, so a re-replicated replica answers StripePartial
// byte-identically to the replica it was copied from. Both stores must
// share SegmentDuration and RollupInterval.
func (db *DB) ExportStripes(stripes []int) (*schema.Frame, error) {
	out := schema.NewFrame(RollupSchema)
	for _, si := range stripes {
		if si < 0 || si >= NumStripes {
			return nil, fmt.Errorf("tsdb: export stripe %d out of range", si)
		}
		sh := &db.shards[si]
		sh.mu.RLock()
		chunks := make([]int64, 0, len(sh.segments))
		for k := range sh.segments {
			chunks = append(chunks, k)
		}
		sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
		for _, chunkN := range chunks {
			seg := sh.segments[chunkN]
			for i := range seg.cells.keys {
				k := &seg.cells.keys[i]
				c := &seg.cells.cells[i]
				row := schema.Row{
					schema.TimeNanos(k.Ts), schema.Str(k.System), schema.Str(k.Source),
					schema.Str(k.Component), schema.Str(k.Metric),
					schema.Int(c.Count), schema.Float(c.Sum),
					schema.Float(c.Min), schema.Float(c.Max),
					schema.Float(c.Last), schema.TimeNanos(c.LastTs),
				}
				if err := out.AppendRow(row); err != nil {
					sh.mu.RUnlock()
					return nil, err
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out, nil
}

// DropStripes discards every segment whose cells live on the given
// stripes, leaving the rest of the store untouched. This is the
// destructive half of stripe re-replication: a replica that diverged
// (missed an insert) drops the stripe and re-imports it from a healthy
// peer's ExportStripes frame, which rebuilds cells in the peer's exact
// scan order.
func (db *DB) DropStripes(stripes []int) error {
	for _, s := range stripes {
		if s < 0 || s >= NumStripes {
			return fmt.Errorf("tsdb: drop: stripe %d out of range [0,%d)", s, NumStripes)
		}
	}
	for _, s := range stripes {
		sh := &db.shards[s]
		sh.mu.Lock()
		for _, seg := range sh.segments {
			sh.ingested -= seg.rows
		}
		sh.segments = make(map[int64]*segment)
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	return nil
}
