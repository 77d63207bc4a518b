package cq

import (
	"fmt"
	"sync"
	"time"

	"odakit/internal/forecast"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// Alert is one fired threshold or anomaly detection.
type Alert struct {
	View   string            `json:"view"`
	Name   string            `json:"name,omitempty"`
	At     time.Time         `json:"at"` // closed bucket start
	Dims   map[string]string `json:"dims,omitempty"`
	Value  float64           `json:"value"`
	Score  float64           `json:"score"`
	Reason string            `json:"reason"`
}

// alertRingCap bounds retained alert history per view.
const alertRingCap = 256

// closedBucket is one (bucket, group) whose value became final — the
// watermark passed its end — and is due for scoring.
type closedBucket struct {
	ts    int64
	dims  [4]string
	value float64
}

// groupScore is one group's online scoring state: the guarded z-score
// detector plus, when a season is configured, a Holt-Winters forecaster
// whose residuals are scored instead of raw values (a value that is
// normal for this time of day scores low even if it is globally
// unusual).
type groupScore struct {
	det  *telemetry.Detector
	hw   *forecast.HoltWinters
	hist []float64 // bucket values retained to (re)fit the forecaster
	idx  int       // bucket position fed to the forecaster
}

// alertState owns a view's scoring and alert history. closeBuckets runs
// under the view lock (it folds view state); scoring and alert appends
// run under the alertState lock so watchers reading alerts never
// contend with the apply path's fold.
type alertState struct {
	spec  AlertSpec
	granN int64     // scoring bucket width
	plan  tsdb.Plan // the view's spec compiled at granN

	mu     sync.Mutex
	groups map[[4]string]*groupScore
	scored int64 // latest bucket start scored (minWatermark until any)
	ring   []Alert
	total  int64
}

func newAlertState(spec Spec, rollupN int64) *alertState {
	granN := int64(spec.Granularity)
	if granN <= 0 {
		granN = rollupN
	}
	q := spec.query()
	q.Granularity = time.Duration(granN)
	return &alertState{
		spec:   *spec.Alert,
		granN:  granN,
		plan:   tsdb.Compile(q),
		groups: make(map[[4]string]*groupScore),
		scored: minWatermark,
	}
}

// closeBuckets folds the buckets the watermark has newly passed.
// Called with v.mu held; returns buckets in (ts, dims) order so each
// group's scorer is fed chronologically.
func (a *alertState) closeBuckets(v *View) []closedBucket {
	if v.watermark == minWatermark {
		return nil
	}
	// Buckets with end <= watermark are final. A watermark exactly on
	// a boundary leaves [closedEnd, +granN) open: it holds the record
	// at its own start.
	closedEnd := tsdb.BucketStart(v.watermark, a.granN)
	fromN, _, ok := v.windowBounds(v.watermark)
	if !ok {
		return nil
	}
	a.mu.Lock()
	start := a.scored
	a.mu.Unlock()
	if start == minWatermark || start < fromN {
		start = tsdb.BucketStart(fromN, a.granN)
		if start < fromN {
			start += a.granN
		}
	} else {
		start += a.granN
	}
	if start >= closedEnd {
		return nil
	}
	groups, _ := v.foldRangeLocked(&a.plan, start, closedEnd)
	f := a.plan.Emit(groups)
	nDims := len(v.Spec.GroupBy)
	out := make([]closedBucket, f.Len())
	for i := range out {
		r := f.Row(i)
		out[i].ts = r[0].TimeVal().UnixNano()
		for d := 0; d < nDims; d++ {
			out[i].dims[d] = r[1+d].StrVal()
		}
		out[i].value = r[1+nDims].FloatVal()
	}
	a.mu.Lock()
	a.scored = closedEnd - a.granN
	a.mu.Unlock()
	return out
}

// scoreAndAlert feeds closed buckets through each group's scorer and
// fires threshold/anomaly alerts, returning how many fired. Runs
// outside the view lock.
func (a *alertState) scoreAndAlert(v *View, closed []closedBucket) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var fired int64
	for _, cb := range closed {
		gs := a.groups[cb.dims]
		if gs == nil {
			gs = &groupScore{det: &telemetry.Detector{}}
			a.groups[cb.dims] = gs
		}
		score := gs.score(a.spec, cb.value)
		var reason string
		switch {
		case a.spec.Above != nil && cb.value > *a.spec.Above:
			reason = fmt.Sprintf("value %.4g above %.4g", cb.value, *a.spec.Above)
		case a.spec.Below != nil && cb.value < *a.spec.Below:
			reason = fmt.Sprintf("value %.4g below %.4g", cb.value, *a.spec.Below)
		case a.spec.MaxScore > 0 && score >= a.spec.MaxScore:
			reason = fmt.Sprintf("anomaly score %.2f >= %.2f", score, a.spec.MaxScore)
		}
		if reason == "" {
			continue
		}
		al := Alert{
			View: v.ID, Name: v.Spec.Name, At: time.Unix(0, cb.ts).UTC(),
			Value: cb.value, Score: score, Reason: reason,
		}
		if n := len(v.Spec.GroupBy); n > 0 {
			al.Dims = make(map[string]string, n)
			for i, d := range v.Spec.GroupBy {
				al.Dims[d] = cb.dims[i]
			}
		}
		if len(a.ring) >= alertRingCap {
			copy(a.ring, a.ring[1:])
			a.ring = a.ring[:len(a.ring)-1]
		}
		a.ring = append(a.ring, al)
		a.total++
		fired++
	}
	return fired
}

// score computes the bucket's anomaly score and folds the bucket into
// the group's state. With a configured season the Holt-Winters residual
// is scored; otherwise the raw value. Both paths run through the
// guarded detector, so constant, zero-variance, or NaN-bearing series
// produce finite, well-defined scores (see telemetry.Detector).
func (gs *groupScore) score(spec AlertSpec, value float64) float64 {
	if spec.MaxScore <= 0 {
		return 0
	}
	if spec.Season >= 2 {
		m := spec.Season
		// Retain enough history to (re)fit: two seasons to fit, two
		// more of slack so a restart refit sees stable state.
		maxHist := 4 * m
		if len(gs.hist) >= maxHist {
			copy(gs.hist, gs.hist[1:])
			gs.hist = gs.hist[:len(gs.hist)-1]
		}
		gs.hist = append(gs.hist, value)
		if gs.hw == nil && len(gs.hist) >= 2*m {
			hw, err := forecast.NewHoltWinters(0.5, 0.1, 0.1, m)
			if err == nil && hw.Fit(gs.hist) == nil {
				gs.hw = hw
				gs.idx = len(gs.hist) - 1
				return 0 // history consumed by the fit; score from the next bucket
			}
		}
		if gs.hw != nil {
			pred, err := gs.hw.Forecast(gs.idx, 1)
			gs.idx++
			if err != nil || len(pred) == 0 {
				return 0
			}
			residual := value - pred[0]
			s := gs.det.Score(residual)
			gs.det.Observe(residual)
			gs.hw.Update(value, gs.idx)
			return s
		}
		return 0 // still collecting the first two seasons
	}
	s := gs.det.Score(value)
	gs.det.Observe(value)
	return s
}

// count reports total alerts fired.
func (a *alertState) count() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// list snapshots the retained alert ring, oldest first.
func (a *alertState) list() []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Alert(nil), a.ring...)
}

// Alerts returns the view's retained alerts, oldest first (empty when
// the view has no alert spec).
func (v *View) Alerts() []Alert {
	if v.alerts == nil {
		return nil
	}
	return v.alerts.list()
}
