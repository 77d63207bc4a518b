package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"odakit/internal/schema"
)

var base = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func ob(sec int, component, metric string, v float64) schema.Observation {
	return schema.Observation{
		Ts: base.Add(time.Duration(sec) * time.Second), System: "compass",
		Source: "power_temp", Component: component, Metric: metric, Value: v,
	}
}

func seededDB(t testing.TB) *DB {
	db := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	// Two nodes, two metrics, 2 minutes of 1 Hz data.
	for s := 0; s < 120; s++ {
		db.Insert(ob(s, "node00000", "node_power_w", 1000+float64(s)))
		db.Insert(ob(s, "node00001", "node_power_w", 2000+float64(s)))
		db.Insert(ob(s, "node00000", "cpu_temp_c", 40))
	}
	return db
}

func TestRollupReducesCells(t *testing.T) {
	db := seededDB(t)
	st := db.Stats()
	if st.RawIngested != 360 {
		t.Fatalf("ingested = %d", st.RawIngested)
	}
	// 120s / 15s = 8 buckets × 3 series = 24 cells.
	if st.RollupCells != 24 {
		t.Fatalf("rollup cells = %d, want 24", st.RollupCells)
	}
	if st.Segments != 1 {
		t.Fatalf("segments = %d, want 1", st.Segments)
	}
}

func TestAvgQueryPerSeries(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters:     map[string][]string{DimMetric: {"node_power_w"}},
		GroupBy:     []string{DimComponent},
		Granularity: 0, Agg: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("rows = %d, want 2", f.Len())
	}
	// node0: mean of 1000..1119 = 1059.5; node1: 2059.5.
	r0, r1 := f.Row(0), f.Row(1)
	if r0[1].StrVal() != "node00000" || math.Abs(r0[2].FloatVal()-1059.5) > 1e-9 {
		t.Fatalf("row0 = %v", r0)
	}
	if r1[1].StrVal() != "node00001" || math.Abs(r1[2].FloatVal()-2059.5) > 1e-9 {
		t.Fatalf("row1 = %v", r1)
	}
}

func TestGranularityBuckets(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters:     map[string][]string{DimMetric: {"node_power_w"}, DimComponent: {"node00000"}},
		Granularity: time.Minute, Agg: AggMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("rows = %d, want 2 minute buckets", f.Len())
	}
	if f.Row(0)[1].FloatVal() != 1059 || f.Row(1)[1].FloatVal() != 1119 {
		t.Fatalf("maxes = %v, %v", f.Row(0)[1], f.Row(1)[1])
	}
	if !f.Row(0)[0].TimeVal().Equal(base) || !f.Row(1)[0].TimeVal().Equal(base.Add(time.Minute)) {
		t.Fatalf("bucket starts = %v, %v", f.Row(0)[0], f.Row(1)[0])
	}
}

func TestAggregations(t *testing.T) {
	db := New(Options{})
	for i, v := range []float64{5, 1, 3} {
		db.Insert(ob(i, "n", "m", v))
	}
	q := Query{From: base, To: base.Add(time.Minute)}
	cases := map[AggKind]float64{
		AggAvg: 3, AggSum: 9, AggMin: 1, AggMax: 5, AggCount: 3, AggLast: 3,
	}
	for agg, want := range cases {
		q.Agg = agg
		f, err := db.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != 1 || f.Row(0)[1].FloatVal() != want {
			t.Fatalf("agg %d = %v, want %v", agg, f.Rows(), want)
		}
	}
}

func TestLastUsesLatestTimestamp(t *testing.T) {
	db := New(Options{RollupInterval: time.Minute})
	// Insert out of order: the later timestamp must win AggLast.
	db.Insert(ob(30, "n", "m", 999))
	db.Insert(ob(10, "n", "m", 111))
	f, err := db.Run(Query{From: base, To: base.Add(time.Hour), Agg: AggLast})
	if err != nil {
		t.Fatal(err)
	}
	if f.Row(0)[1].FloatVal() != 999 {
		t.Fatalf("last = %v, want 999", f.Row(0)[1])
	}
}

// TestLastBeforeEpoch: a cell whose samples all predate 1970 has negative
// timestamps, which must still win AggLast over the empty state — in the
// parallel engine, the serial reference and a cell-to-cell merge alike.
func TestLastBeforeEpoch(t *testing.T) {
	db := New(Options{RollupInterval: time.Minute, QueryCacheSize: -1})
	t0 := time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC)
	db.Insert(schema.Observation{Ts: t0, System: "s", Source: "x", Component: "n", Metric: "m", Value: 7})
	db.Insert(schema.Observation{Ts: t0.Add(time.Second), System: "s", Source: "x", Component: "n", Metric: "m", Value: 9})
	q := Query{From: t0, To: t0.Add(time.Hour), Agg: AggLast}
	for name, run := range map[string]func(Query) (*schema.Frame, error){"Run": db.Run, "RunSerial": db.RunSerial} {
		f, err := run(q)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != 1 || f.Row(0)[1].FloatVal() != 9 {
			t.Fatalf("%s: last = %v, want [9]", name, f.Rows())
		}
	}
	// The scatter-gather path merges the cell into fresh, empty group
	// cells twice: once in the stripe scan, once in the final merge.
	sp, err := db.StripePartial(q, StripeFor("n", "m"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := MergeStripePartials(q, []*StripePartial{sp})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 || f.Row(0)[1].FloatVal() != 9 {
		t.Fatalf("MergeStripePartials: last = %v, want [9]", f.Rows())
	}
}

func TestTimeRangeExcludes(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base.Add(time.Minute), To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w"}, DimComponent: {"node00000"}},
		Agg:     AggMin,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Minimum within [60,120) is 1060.
	if f.Len() != 1 || f.Row(0)[1].FloatVal() != 1060 {
		t.Fatalf("result = %v", f.Rows())
	}
}

func TestMultiValueFilter(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w", "cpu_temp_c"}},
		GroupBy: []string{DimMetric},
		Agg:     AggCount,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("metrics = %d, want 2", f.Len())
	}
}

func TestBadQueries(t *testing.T) {
	db := seededDB(t)
	cases := []Query{
		{From: base, To: base},
		{From: base, To: base.Add(time.Hour), GroupBy: []string{"nope"}},
		{From: base, To: base.Add(time.Hour), Filters: map[string][]string{"bogus": {"x"}}},
		{From: base, To: base.Add(time.Hour), GroupBy: []string{DimMetric, DimMetric}},
	}
	for i, q := range cases {
		if _, err := db.Run(q); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("case %d: err = %v, want ErrBadQuery", i, err)
		}
	}
}

func TestRetention(t *testing.T) {
	db := New(Options{SegmentDuration: time.Hour})
	db.Insert(ob(0, "n", "m", 1))
	db.Insert(schema.Observation{Ts: base.Add(5 * time.Hour), System: "s", Source: "x", Component: "n", Metric: "m", Value: 2})
	if db.Stats().Segments != 2 {
		t.Fatalf("segments = %d", db.Stats().Segments)
	}
	dropped := db.Retain(base.Add(3 * time.Hour))
	if dropped != 1 || db.Stats().Segments != 1 {
		t.Fatalf("dropped = %d, segments = %d", dropped, db.Stats().Segments)
	}
	f, err := db.Run(Query{From: base, To: base.Add(time.Hour), Agg: AggSum})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatal("dropped segment still queryable")
	}
}

func TestTopN(t *testing.T) {
	db := seededDB(t)
	top, err := db.TopN(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w"}},
		Agg:     AggAvg,
	}, DimComponent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Dim != "node00001" {
		t.Fatalf("top = %+v", top)
	}
	if _, err := db.TopN(Query{From: base, To: base.Add(time.Minute)}, "bogus", 3); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad dim: %v", err)
	}
	// n larger than cardinality returns everything.
	top, _ = db.TopN(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w"}},
		Agg:     AggAvg,
	}, DimComponent, 99)
	if len(top) != 2 {
		t.Fatalf("top all = %d", len(top))
	}
}

func TestInsertRow(t *testing.T) {
	db := New(Options{})
	if err := db.InsertRow(ob(0, "n", "m", 5).Row()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRow(schema.Row{schema.Int(1)}); err == nil {
		t.Fatal("malformed row should be rejected")
	}
	if db.Stats().RawIngested != 1 {
		t.Fatal("row not ingested")
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	db := New(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				db.Insert(ob(i%120, fmt.Sprintf("node%d", w), "m", float64(i)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Run(Query{From: base, To: base.Add(time.Hour), Agg: AggCount}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.Stats().RawIngested; got != 2000 {
		t.Fatalf("ingested = %d, want 2000", got)
	}
}

func BenchmarkInsert(b *testing.B) {
	db := New(Options{})
	o := ob(0, "node00042", "node_power_w", 2713)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Ts = base.Add(time.Duration(i) * time.Millisecond)
		db.Insert(o)
	}
}

func BenchmarkGroupByQuery(b *testing.B) {
	db := New(Options{})
	for s := 0; s < 3600; s += 5 {
		for n := 0; n < 32; n++ {
			db.Insert(ob(s, fmt.Sprintf("node%05d", n), "node_power_w", float64(1000+n)))
		}
	}
	q := Query{
		From: base, To: base.Add(time.Hour),
		GroupBy: []string{DimComponent}, Granularity: time.Minute, Agg: AggAvg,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExport(t *testing.T) {
	db := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	db.Insert(ob(0, "node0", "power", 100))
	db.Insert(ob(5, "node0", "power", 200))
	db.Insert(ob(0, "node1", "temp", 40))
	// A fresh segment 5 hours later must not export at a 3h cutoff.
	db.Insert(schema.Observation{Ts: base.Add(5 * time.Hour), System: "compass", Source: "power_temp", Component: "node0", Metric: "power", Value: 1})

	f, err := db.Export(base.Add(3 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 { // two rollup cells in the aged segment
		t.Fatalf("exported rows = %d, want 2", f.Len())
	}
	if !f.Schema().Equal(RollupSchema) {
		t.Fatalf("schema = %s", f.Schema())
	}
	// First row is node0/power with full aggregation state.
	r := f.Row(0)
	ci, mi := f.Schema().MustIndex("component"), f.Schema().MustIndex("metric")
	if r[ci].StrVal() != "node0" || r[mi].StrVal() != "power" {
		t.Fatalf("row0 = %v", r)
	}
	if r[f.Schema().MustIndex("count")].IntVal() != 2 ||
		r[f.Schema().MustIndex("sum")].FloatVal() != 300 ||
		r[f.Schema().MustIndex("min")].FloatVal() != 100 ||
		r[f.Schema().MustIndex("max")].FloatVal() != 200 {
		t.Fatalf("agg state = %v", r)
	}
	// Nothing aged: empty export.
	empty, err := db.Export(base)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty export = %d rows, %v", empty.Len(), err)
	}
}
