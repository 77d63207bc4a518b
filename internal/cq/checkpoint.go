package cq

import (
	"fmt"
	"math"
	"sort"
	"time"

	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// Checkpoint layer: the pump persists consumer offsets and full view
// state in ONE atomic file, and applies records strictly before
// checkpointing. A crash between apply and checkpoint restores the
// pre-suffix state and replays the suffix into it — exactly-once, the
// stronger sibling of sproc's at-least-once (sproc can afford replays
// because its sinks are idempotent; a view cell's add() is not).
//
// All data-derived floats are serialized as IEEE-754 bit patterns
// (uint64): json.Marshal rejects NaN/Inf outright, and bits round-trip
// exactly where decimal formatting of a float might not, which the
// byte-identical equivalence guarantee cannot tolerate.

type ckptCell struct {
	Ts     int64  `json:"t"`
	System string `json:"sy"`
	Source string `json:"so"`
	Comp   string `json:"c"`
	Metric string `json:"m"`
	Count  int64  `json:"n"`
	Sum    uint64 `json:"s"`
	Min    uint64 `json:"mn"`
	Max    uint64 `json:"mx"`
	LastTs int64  `json:"lt"`
	Last   uint64 `json:"l"`
}

type ckptChunk struct {
	Start int64      `json:"start"`
	Cells []ckptCell `json:"cells"` // insertion order — the fold depends on it
}

type ckptPart struct {
	Stripe int         `json:"stripe"`
	Topic  string      `json:"topic"`
	Part   int         `json:"part"`
	Chunks []ckptChunk `json:"chunks"`
}

type ckptGroupScore struct {
	Dims []string                `json:"dims"`
	Det  telemetry.DetectorState `json:"det"`
	Hist []uint64                `json:"hist,omitempty"` // float bits
}

type ckptAlerts struct {
	Scored int64            `json:"scored"`
	Groups []ckptGroupScore `json:"groups,omitempty"`
	Ring   []Alert          `json:"ring,omitempty"`
	Total  int64            `json:"total"`
}

type ckptSpec struct {
	Name        string              `json:"name,omitempty"`
	Filters     map[string][]string `json:"filters,omitempty"`
	GroupBy     []string            `json:"group_by,omitempty"`
	Granularity int64               `json:"granularity"`
	Agg         int                 `json:"agg"`
	Window      int64               `json:"window"`
	Kind        int                 `json:"kind"`
	Above       *uint64             `json:"above,omitempty"` // float bits
	Below       *uint64             `json:"below,omitempty"`
	MaxScore    uint64              `json:"max_score,omitempty"`
	Season      int                 `json:"season,omitempty"`
}

type ckptView struct {
	ID            string      `json:"id"`
	Spec          ckptSpec    `json:"spec"`
	Watermark     int64       `json:"watermark"`
	EvictedBefore int64       `json:"evicted_before"`
	Applied       int64       `json:"applied"`
	Late          int64       `json:"late"`
	Parts         []ckptPart  `json:"parts,omitempty"`
	Alerts        *ckptAlerts `json:"alerts,omitempty"`
}

type ckptFile struct {
	Name    string             `json:"name"`
	Offsets map[string][]int64 `json:"offsets"` // topic -> per-partition cursors
	Views   []ckptView         `json:"views"`
}

func specToCkpt(s Spec) ckptSpec {
	cs := ckptSpec{
		Name: s.Name, Filters: s.Filters, GroupBy: s.GroupBy,
		Granularity: int64(s.Granularity), Agg: int(s.Agg),
		Window: int64(s.Window), Kind: int(s.Kind),
	}
	if a := s.Alert; a != nil {
		if a.Above != nil {
			b := math.Float64bits(*a.Above)
			cs.Above = &b
		}
		if a.Below != nil {
			b := math.Float64bits(*a.Below)
			cs.Below = &b
		}
		cs.MaxScore = math.Float64bits(a.MaxScore)
		cs.Season = a.Season
	}
	return cs
}

func (cs ckptSpec) spec() Spec {
	s := Spec{
		Name: cs.Name, Filters: cs.Filters, GroupBy: cs.GroupBy,
		Granularity: time.Duration(cs.Granularity), Agg: tsdb.AggKind(cs.Agg),
		Window: time.Duration(cs.Window), Kind: WindowKind(cs.Kind),
	}
	if cs.Above != nil || cs.Below != nil || cs.MaxScore != 0 || cs.Season != 0 {
		a := &AlertSpec{MaxScore: math.Float64frombits(cs.MaxScore), Season: cs.Season}
		if cs.Above != nil {
			f := math.Float64frombits(*cs.Above)
			a.Above = &f
		}
		if cs.Below != nil {
			f := math.Float64frombits(*cs.Below)
			a.Below = &f
		}
		s.Alert = a
	}
	return s
}

// snapshot captures the view's full state under its lock.
func (v *View) snapshot() ckptView {
	v.mu.Lock()
	defer v.mu.Unlock()
	cv := ckptView{
		ID: v.ID, Spec: specToCkpt(v.Spec),
		Watermark: v.watermark, EvictedBefore: v.evictedBefore,
		Applied: v.applied, Late: v.late,
	}
	for s := range v.stripes {
		for tp, pc := range v.stripes[s] {
			cp := ckptPart{Stripe: s, Topic: tp.topic, Part: tp.part}
			starts := make([]int64, 0, len(pc.chunks))
			for start := range pc.chunks {
				starts = append(starts, start)
			}
			sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
			for _, start := range starts {
				cc := pc.chunks[start]
				ch := ckptChunk{Start: start, Cells: make([]ckptCell, 0, cc.Len())}
				cells := cc.Cells()
				for i, k := range cc.Keys() {
					c := &cells[i]
					ch.Cells = append(ch.Cells, ckptCell{
						Ts: k.Ts, System: k.System, Source: k.Source, Comp: k.Component, Metric: k.Metric,
						Count: c.Count, Sum: math.Float64bits(c.Sum),
						Min: math.Float64bits(c.Min), Max: math.Float64bits(c.Max),
						LastTs: c.LastTs, Last: math.Float64bits(c.Last),
					})
				}
				cp.Chunks = append(cp.Chunks, ch)
			}
			cv.Parts = append(cv.Parts, cp)
		}
	}
	// Deterministic file bytes: sort by (stripe, topic, part).
	sort.Slice(cv.Parts, func(i, j int) bool {
		a, b := cv.Parts[i], cv.Parts[j]
		if a.Stripe != b.Stripe {
			return a.Stripe < b.Stripe
		}
		if a.Topic != b.Topic {
			return a.Topic < b.Topic
		}
		return a.Part < b.Part
	})
	if v.alerts != nil {
		cv.Alerts = v.alerts.snapshot()
	}
	return cv
}

func (a *alertState) snapshot() *ckptAlerts {
	a.mu.Lock()
	defer a.mu.Unlock()
	ca := &ckptAlerts{Scored: a.scored, Total: a.total, Ring: append([]Alert(nil), a.ring...)}
	dimKeys := make([][4]string, 0, len(a.groups))
	for d := range a.groups {
		dimKeys = append(dimKeys, d)
	}
	sort.Slice(dimKeys, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if dimKeys[i][k] != dimKeys[j][k] {
				return dimKeys[i][k] < dimKeys[j][k]
			}
		}
		return false
	})
	for _, d := range dimKeys {
		gs := a.groups[d]
		cg := ckptGroupScore{Dims: d[:], Det: gs.det.State()}
		for _, h := range gs.hist {
			cg.Hist = append(cg.Hist, math.Float64bits(h))
		}
		ca.Groups = append(ca.Groups, cg)
	}
	return ca
}

// restoreInto rebuilds the view's state from a snapshot. The view must
// be freshly registered (empty); cells are re-inserted in checkpointed
// insertion order so the restored fold is byte-identical.
func (v *View) restoreInto(cv ckptView) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.applied != 0 {
		return fmt.Errorf("cq: restore into non-empty view %s", v.ID)
	}
	v.watermark = cv.Watermark
	v.evictedBefore = cv.EvictedBefore
	v.applied, v.late = cv.Applied, cv.Late
	for _, cp := range cv.Parts {
		if cp.Stripe < 0 || cp.Stripe >= tsdb.NumStripes {
			return fmt.Errorf("cq: checkpoint stripe %d out of range", cp.Stripe)
		}
		tp := topicPart{topic: cp.Topic, part: cp.Part}
		pc := v.stripes[cp.Stripe][tp]
		if pc == nil {
			pc = &partChunks{chunks: make(map[int64]*tsdb.CellTable)}
			v.stripes[cp.Stripe][tp] = pc
			v.noteTPLocked(tp)
		}
		for _, ch := range cp.Chunks {
			cc := pc.chunks[ch.Start]
			if cc == nil {
				cc = &tsdb.CellTable{}
				pc.chunks[ch.Start] = cc
			}
			for _, c := range ch.Cells {
				key := tsdb.RollupKey{Ts: c.Ts, System: c.System, Source: c.Source, Component: c.Comp, Metric: c.Metric}
				*cc.Cell(key) = tsdb.Cell{
					Count: c.Count, Sum: math.Float64frombits(c.Sum),
					Min: math.Float64frombits(c.Min), Max: math.Float64frombits(c.Max),
					LastTs: c.LastTs, Last: math.Float64frombits(c.Last),
				}
			}
		}
	}
	if cv.Alerts != nil && v.alerts != nil {
		v.alerts.restore(cv.Alerts)
	}
	return nil
}

// restore rebuilds scoring state. The detector restores exactly; a
// Holt-Winters forecaster is refit from the retained history on the
// next closed bucket rather than serialized — an approximation that can
// shift post-restart anomaly scores slightly but never view frames.
func (a *alertState) restore(ca *ckptAlerts) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.scored, a.total = ca.Scored, ca.Total
	a.ring = append(a.ring[:0], ca.Ring...)
	for _, cg := range ca.Groups {
		var d [4]string
		copy(d[:], cg.Dims)
		gs := &groupScore{det: telemetry.RestoreDetector(cg.Det)}
		for _, h := range cg.Hist {
			gs.hist = append(gs.hist, math.Float64frombits(h))
		}
		a.groups[d] = gs
	}
}
