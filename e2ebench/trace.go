package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one operation share op; parent
// is the index of the enclosing span, or -1.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int
	op         int
}

// tracer keeps spans in memory; writeChrome writes them out at the end.
// A tracer with off set records nothing (the untraced side of the
// tracing-overhead comparison).
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
	off   bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.t0)
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// layerStat is the self time of every span of one name.
type layerStat struct {
	self  time.Duration
	count int
}

// meanMs is the mean self time per span in milliseconds.
func (l layerStat) meanMs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self.Nanoseconds()) / 1e6 / float64(l.count)
}

// selfTimes sums each span's duration minus the part of it its children
// cover, by span name.
func (t *tracer) selfTimes() map[string]layerStat {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make(map[string]layerStat)
	for i, s := range t.spans {
		covered := time.Duration(0)
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return t.spans[ch[a]].start < t.spans[ch[b]].start })
		var curS, curE time.Duration
		open := false
		for _, c := range ch {
			cs, ce := t.spans[c].start, t.spans[c].end
			if open && cs <= curE {
				if ce > curE {
					curE = ce
				}
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = cs, ce, true
		}
		if open {
			covered += curE - curS
		}
		st := out[s.name]
		st.self += s.end - s.start - covered
		st.count++
		out[s.name] = st
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, the shape sim.ChromeTrace emits.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]int `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace (microseconds; one
// thread row per operation).
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: "layer", Phase: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.op,
			Args: map[string]int{"parent": s.parent, "op": s.op},
		}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
