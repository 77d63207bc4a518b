package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// The ledger records bench-side spans around every call into a layer's
// public functions. Nothing inside the program is traced: a span's
// duration is the wall time of the call as its caller sees it.
//
// Spans live in memory, one lane per goroutine the workload runs, so
// recording takes no lock. Span names are "<layer>.<operation>"; names
// under "bench." are the harness's own (the operation a span belongs to,
// open-loop idle time), and a lane's root span is named "lane".

type span struct {
	Name   string `json:"name"`
	Lane   string `json:"lane"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// lane is one goroutine's span log. The zero of `on` makes every call a
// no-op, which is how the untraced run pays nothing for it.
type lane struct {
	name  string
	on    bool
	epoch time.Time
	spans []span
	open  []int32
}

func newLane(name string, on bool, epoch time.Time) *lane {
	return &lane{name: name, on: on, epoch: epoch}
}

// begin opens a span nested in the innermost open one. A negative req
// inherits the parent's request id.
func (l *lane) begin(name string, req int64) int32 {
	if !l.on {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
		if req < 0 {
			req = l.spans[parent].Req
		}
	}
	l.spans = append(l.spans, span{Name: name, Lane: l.name, Req: req, Parent: parent,
		Start: int64(time.Since(l.epoch))})
	id := int32(len(l.spans) - 1)
	l.open = append(l.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (l *lane) end(id int32) {
	if id < 0 {
		return
	}
	l.spans[id].End = int64(time.Since(l.epoch))
	l.open = l.open[:len(l.open)-1]
}

// inner records a child of span id whose duration the program reported
// itself (a response header), placed at the parent's start. Its
// position inside the parent is unknown; its length is exact.
func (l *lane) inner(id int32, name string, d time.Duration) {
	if id < 0 || d <= 0 {
		return
	}
	p := l.spans[id]
	end := p.Start + int64(d)
	if end > p.End {
		end = p.End
	}
	l.spans = append(l.spans, span{Name: name, Lane: l.name, Req: p.Req, Parent: id, Start: p.Start, End: end})
}

// childTime sums, for every span, the durations of its direct children.
func (l *lane) childTime() []time.Duration {
	sum := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			sum[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// ledger gathers the lanes of one traced pass.
type ledger struct {
	on    bool
	epoch time.Time
	lanes []*lane
}

func newLedger(on bool) *ledger { return &ledger{on: on, epoch: time.Now()} }

func (lg *ledger) lane(name string) *lane {
	l := newLane(name, lg.on, lg.epoch)
	lg.lanes = append(lg.lanes, l)
	return l
}

func harness(name string) bool { return name == "lane" || strings.HasPrefix(name, "bench.") }

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// account is the ledger's summary: self time per layer, the wall time
// the lanes were busy, and how much of it no layer span covered.
type account struct {
	self         map[string]time.Duration // layer → self time
	byName       map[string]time.Duration // span name → total duration
	count        map[string]int64         // span name → spans
	wall         time.Duration            // Σ lane root time minus open-loop idle
	unattributed time.Duration
}

func (a account) unattributedFrac() float64 {
	if a.wall <= 0 {
		return 0
	}
	return float64(a.unattributed) / float64(a.wall)
}

// meanNs is the mean duration of spans named name, in nanoseconds.
func (a account) meanNs(name string) float64 {
	if a.count[name] == 0 {
		return 0
	}
	return float64(a.byName[name]) / float64(a.count[name])
}

// summarize computes self times: a span's self time is its duration
// minus its children's. A lane's busy wall time is its root span minus
// the harness's idle spans; the layers account for it up to the time
// spent between layer calls, which is the unattributed share.
func (lg *ledger) summarize() account {
	a := account{self: map[string]time.Duration{}, byName: map[string]time.Duration{}, count: map[string]int64{}}
	for _, l := range lg.lanes {
		childSum := l.childTime()
		var root, idle, covered time.Duration
		for i, s := range l.spans {
			d := time.Duration(s.End - s.Start)
			a.byName[s.Name] += d
			a.count[s.Name]++
			switch {
			case s.Name == "lane":
				root += d
			case s.Name == "bench.idle":
				idle += d
			case harness(s.Name):
			default:
				a.self[layerOf(s.Name)] += d - childSum[i]
				if s.Parent < 0 || harness(l.spans[s.Parent].Name) {
					covered += d
				}
			}
		}
		busy := root - idle
		a.wall += busy
		if busy > covered {
			a.unattributed += busy - covered
		}
	}
	return a
}

// write saves every span as one JSON line.
func (lg *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range lg.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table renders the self-time ledger, largest layer first.
func (a account) table() []string {
	type row struct {
		layer string
		d     time.Duration
	}
	rows := make([]row, 0, len(a.self))
	for k, v := range a.self {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	out := []string{fmt.Sprintf("ledger: busy wall %.3fs over all lanes; layer self time:", a.wall.Seconds())}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("  %-12s %9.3fs  %5.1f%%", r.layer, r.d.Seconds(), 100*float64(r.d)/float64(max(a.wall, 1))))
	}
	out = append(out, fmt.Sprintf("  %-12s %9.3fs  %5.1f%%", "(unattributed)", a.unattributed.Seconds(), 100*a.unattributedFrac()))
	return out
}
