package cq

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// TestCheckpointGolden restores a checkpoint written by an earlier build
// and requires every view to read back a frame byte-identical to the one
// that build served, and the re-written checkpoint to be byte-identical
// to the restored file. It pins the checkpoint format and the fold
// against silent drift across releases. Regenerate both files with
// ODA_UPDATE_GOLDEN=1 go test — only when a format change is intended.
func TestCheckpointGolden(t *testing.T) {
	ckptGolden := filepath.Join("testdata", "checkpoint.golden.json")
	framesGolden := filepath.Join("testdata", "checkpoint_frames.golden")
	topics := []string{"bronze.alpha", "bronze.beta"}
	cfg := Config{RollupInterval: propRollup, SegmentDuration: propSegment}

	if os.Getenv("ODA_UPDATE_GOLDEN") != "" {
		ckpt, frames := goldenCheckpointSource(t, topics, cfg)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptGolden, ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(framesGolden, frames, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := os.ReadFile(ckptGolden)
	if err != nil {
		t.Fatalf("read golden (run with ODA_UPDATE_GOLDEN=1 to create): %v", err)
	}
	wantFrames, err := os.ReadFile(framesGolden)
	if err != nil {
		t.Fatalf("read golden (run with ODA_UPDATE_GOLDEN=1 to create): %v", err)
	}

	dir := t.TempDir()
	pcfg := PumpConfig{Name: "golden", Topics: topics, CheckpointDir: dir}
	if err := os.WriteFile(filepath.Join(dir, "golden.ckpt.json"), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	b := goldenBroker(t, topics)
	defer b.Close()
	eng := NewEngine(cfg)
	pump, err := NewPump(eng, b, pcfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !pump.Metrics().Recovered {
		t.Fatal("pump did not recover from the golden checkpoint")
	}
	if got := dumpViews(eng); got != string(wantFrames) {
		t.Fatalf("restored views diverge from golden frames.\nGot:\n%s\nWant:\n%s", got, wantFrames)
	}
	if err := pump.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(filepath.Join(dir, "golden.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, ckpt) {
		t.Fatalf("re-written checkpoint differs from the restored golden file (%d vs %d bytes)", len(rewritten), len(ckpt))
	}
}

func goldenBroker(t *testing.T, topics []string) *stream.Broker {
	b := stream.NewBroker()
	for _, tp := range topics {
		if err := b.CreateTopic(tp, stream.TopicConfig{Partitions: 2}); err != nil {
			t.Fatalf("create topic: %v", err)
		}
	}
	return b
}

// goldenCheckpointSource drives a fixed workload through a checkpointing
// pump and returns the checkpoint file plus the views' frames dump.
func goldenCheckpointSource(t *testing.T, topics []string, cfg Config) (ckpt, frames []byte) {
	b := goldenBroker(t, topics)
	defer b.Close()
	eng := NewEngine(cfg)
	above := 60.0
	specs := []Spec{
		{Name: "per-series", GroupBy: []string{tsdb.DimComponent, tsdb.DimMetric},
			Granularity: 30 * time.Second, Agg: tsdb.AggAvg, Window: 3 * time.Minute},
		{Name: "last-by-source", GroupBy: []string{tsdb.DimSource}, Agg: tsdb.AggLast,
			Window: 2 * time.Minute, Kind: WindowTumbling,
			Filters: map[string][]string{tsdb.DimMetric: {"cpu", "pow"}, tsdb.DimComponent: {"node02"}}},
		{Name: "fleet-sum", Agg: tsdb.AggSum, Window: 90 * time.Second,
			Alert: &AlertSpec{Above: &above, MaxScore: 3, Season: 4}},
		{Name: "max-by-metric", GroupBy: []string{tsdb.DimMetric}, Granularity: 15 * time.Second,
			Agg: tsdb.AggMax, Window: 2 * time.Minute},
		{Name: "count-min", GroupBy: []string{tsdb.DimSystem, tsdb.DimComponent},
			Granularity: time.Minute, Agg: tsdb.AggMin, Window: 3 * time.Minute},
	}
	for _, s := range specs {
		if _, err := eng.Register(s); err != nil {
			t.Fatalf("register %s: %v", s.Name, err)
		}
	}
	dir := t.TempDir()
	pump, err := NewPump(eng, b, PumpConfig{Name: "golden", Topics: topics, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20240601))
	comps := []string{"node01", "node02", "node03", "node04"}
	mets := []string{"cpu", "mem", "pow"}
	cur := unitT0
	for i := 0; i < 600; i++ {
		if rng.Intn(12) == 0 {
			cur = cur.Add(-time.Duration(rng.Intn(20)) * time.Second) // late record
		} else {
			cur = cur.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
		}
		topic := topics[rng.Intn(len(topics))]
		o := schema.Observation{
			Ts: cur, System: "sys", Source: strings.TrimPrefix(topic, "bronze."),
			Component: comps[rng.Intn(len(comps))], Metric: mets[rng.Intn(len(mets))],
			Value: rng.NormFloat64()*10 + 50,
		}
		if _, _, err := b.Publish(topic, []byte(o.Component), schema.EncodeRow(o.Row())); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := pump.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	ckpt, err = os.ReadFile(filepath.Join(dir, "golden.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	return ckpt, []byte(dumpViews(eng))
}

// dumpViews renders every view's frame (views by ID) with float values
// as IEEE-754 bits, so equal dumps mean bit-identical frames.
func dumpViews(eng *Engine) string {
	var sb strings.Builder
	for _, v := range eng.Views() {
		f, info := v.Read()
		fmt.Fprintf(&sb, "view %s %q window [%s, %s) rows %d\n", v.ID, v.Spec.Name,
			info.From.Format(time.RFC3339Nano), info.To.Format(time.RFC3339Nano), f.Len())
		for _, r := range f.Rows() {
			sb.WriteString(" ")
			for _, val := range r {
				switch val.Kind() {
				case schema.KindFloat:
					fmt.Fprintf(&sb, " %016x", math.Float64bits(val.FloatVal()))
				case schema.KindTime:
					fmt.Fprintf(&sb, " %s", val.TimeVal().Format(time.RFC3339Nano))
				default:
					fmt.Fprintf(&sb, " %s", val.StrVal())
				}
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
