package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// pct returns the p-th percentile (0 < p <= 1) of xs by nearest rank.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// summary gives the sample count and the percentiles the stamp reports.
func (l latencies) summary() map[string]float64 {
	return map[string]float64{"n": float64(len(l)), "p50": pct(l, 0.5), "p90": pct(l, 0.9),
		"p99": pct(l, 0.99), "max": pct(l, 1)}
}

// pieces splits a run's latency samples into consecutive parts — the
// rounds of a pipeline workload, equal slices of the serving phase — so
// a metric can take the median of the parts' percentiles: a part hit by
// a burst of outside load (CPU steal, a neighbour's disk traffic) moves
// that median less than it moves a percentile of the pooled samples.
type pieces []latencies

// add records d in part i.
func (p *pieces) add(i int, d time.Duration) {
	for len(*p) <= i {
		*p = append(*p, nil)
	}
	(*p)[i].add(d)
}

// pct is the median over parts of each part's q-th percentile.
func (p pieces) pct(q float64) float64 {
	var v []float64
	for _, l := range p {
		if len(l) > 0 {
			v = append(v, pct(l, q))
		}
	}
	return median(v)
}

// merge appends q's parts to p's, part by part.
func (p *pieces) merge(q pieces) {
	for i, l := range q {
		for len(*p) <= i {
			*p = append(*p, nil)
		}
		(*p)[i] = append((*p)[i], l...)
	}
}

// all pools the parts.
func (p pieces) all() latencies {
	var out latencies
	for _, l := range p {
		out = append(out, l...)
	}
	return out
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gcMeter measures the share of CPU the garbage collector took over an
// interval, from runtime.MemStats.GCCPUFraction's running average.
type gcMeter struct {
	start time.Time
	frac  float64
}

func startGC() gcMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcMeter{start: time.Now(), frac: m.GCCPUFraction}
}

// since returns the GC CPU share of the interval since the meter
// started. GCCPUFraction averages over the process lifetime, so the
// interval's share is recovered from the two lifetime averages.
func (g gcMeter) since() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := g.start.Sub(procStart).Seconds()
	total := time.Since(procStart).Seconds()
	span := total - before
	if span <= 0 {
		return 0
	}
	v := (m.GCCPUFraction*total - g.frac*before) / span
	return math.Max(0, v)
}

// procStart approximates the process start, where GCCPUFraction's
// average begins.
var procStart = time.Now()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
