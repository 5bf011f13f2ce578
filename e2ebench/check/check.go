// Package check verifies schedules from the JSON a client sent and the JSON
// it got back, without calling the scheduler's own validator or simulator.
// It decodes requests and responses into its own types, so a fault in the
// program's codecs or in sched.Validate cannot hide a wrong schedule.
//
// Rules checked (CheckSchedule):
//
//   - every task is placed exactly once, on a real processor, with
//     finish − start = weight × cycle time;
//   - no two tasks of one processor overlap;
//   - every edge is met: on one processor the consumer starts after the
//     producer finishes; across processors a communication exists whose
//     first hop leaves the producer's processor after it finishes, whose
//     hops chain processor to processor, each lasting data × link, and
//     whose last hop lands on the consumer's processor before it starts;
//   - no communication exists for a same-processor or non-existent edge;
//   - port rules per model: oneport (sends pairwise disjoint and receives
//     pairwise disjoint per processor), uniport (sends ∪ receives disjoint),
//     nooverlap (oneport, and no computation while a port is busy), macro
//     (no port rule).
package check

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Graph is a task graph: node weights and weighted edges.
type Graph struct {
	W     []float64
	Edges []Edge
}

// Edge is one precedence constraint carrying Data units.
type Edge struct {
	From, To int
	Data     float64
}

// Platform holds cycle times and the link cost matrix (+Inf: no wire).
type Platform struct {
	Cycles []float64
	Link   [][]float64
}

// Task is one placed task.
type Task struct {
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// Hop is one wire traversal of a communication.
type Hop struct {
	From   int     `json:"from_proc"`
	To     int     `json:"to_proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// Comm is the transfer of one edge's data.
type Comm struct {
	From int     `json:"from_task"`
	To   int     `json:"to_task"`
	Data float64 `json:"data"`
	Hops []Hop   `json:"hops"`
}

// Schedule is a schedule as it travels in a response.
type Schedule struct {
	Tasks []Task `json:"tasks"`
	Comms []Comm `json:"comms"`
	Procs int    `json:"procs"`
}

// Response is the part of a /schedule or session reply the checks read.
type Response struct {
	Tasks    int       `json:"tasks"`
	Makespan float64   `json:"makespan"`
	Speedup  float64   `json:"speedup"`
	Comms    int       `json:"comms"`
	Cached   bool      `json:"cached"`
	Error    string    `json:"error"`
	Schedule *Schedule `json:"schedule"`
}

type wireNode struct {
	Weight float64 `json:"weight"`
}

type wireGraph struct {
	Nodes []wireNode `json:"nodes"`
	Edges []Edge     `json:"edges"`
}

type wirePlatform struct {
	Cycles      []float64    `json:"cycles"`
	Link        [][]*float64 `json:"link"`
	UniformLink *float64     `json:"uniform_link"`
}

// ParseGraph decodes the graph JSON form {"nodes":[{"weight":..}],"edges":[..]}.
func ParseGraph(raw []byte) (*Graph, error) {
	var wg wireGraph
	if err := json.Unmarshal(raw, &wg); err != nil {
		return nil, fmt.Errorf("check: graph: %w", err)
	}
	g := &Graph{W: make([]float64, len(wg.Nodes)), Edges: wg.Edges}
	for i, n := range wg.Nodes {
		g.W[i] = n.Weight
	}
	return g, nil
}

// ParsePlatform decodes {"cycles":[..],"link":[[..]]} or the uniform_link
// shorthand (default link cost 1).
func ParsePlatform(raw []byte) (*Platform, error) {
	var wp wirePlatform
	if err := json.Unmarshal(raw, &wp); err != nil {
		return nil, fmt.Errorf("check: platform: %w", err)
	}
	p := len(wp.Cycles)
	pl := &Platform{Cycles: wp.Cycles, Link: make([][]float64, p)}
	for q := 0; q < p; q++ {
		pl.Link[q] = make([]float64, p)
		for r := 0; r < p; r++ {
			switch {
			case q == r:
			case wp.Link == nil && wp.UniformLink != nil:
				pl.Link[q][r] = *wp.UniformLink
			case wp.Link == nil:
				pl.Link[q][r] = 1
			case wp.Link[q][r] == nil:
				pl.Link[q][r] = math.Inf(1)
			default:
				pl.Link[q][r] = *wp.Link[q][r]
			}
		}
	}
	return pl, nil
}

// ParseResponse decodes a reply and fails on an error reply or a missing
// schedule.
func ParseResponse(body []byte) (*Response, error) {
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("check: response: %w", err)
	}
	if r.Error != "" {
		return nil, fmt.Errorf("check: error reply: %s", r.Error)
	}
	if r.Schedule == nil {
		return nil, fmt.Errorf("check: reply carries no schedule")
	}
	return &r, nil
}

// near reports |a−b| within a tolerance relative to their size; schedules
// are sums of float products.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// before reports a ≤ b up to the same tolerance.
func before(a, b float64) bool { return a <= b || near(a, b) }

// Makespan is the latest task finish.
func Makespan(s *Schedule) float64 {
	m := 0.0
	for _, t := range s.Tasks {
		m = math.Max(m, t.Finish)
	}
	return m
}

// Speedup is the sequential time on a fastest processor over the makespan.
func Speedup(g *Graph, pl *Platform, makespan float64) float64 {
	total := 0.0
	for _, w := range g.W {
		total += w
	}
	return total * minCycle(pl) / makespan
}

func minCycle(pl *Platform) float64 {
	m := math.Inf(1)
	for _, c := range pl.Cycles {
		m = math.Min(m, c)
	}
	return m
}

// MaxSpeedup is Σ speeds / fastest speed, the largest speedup any schedule
// on pl can reach.
func MaxSpeedup(pl *Platform) float64 {
	sum := 0.0
	for _, c := range pl.Cycles {
		sum += 1 / c
	}
	return sum * minCycle(pl)
}

// LowerBound is max(critical path on a fastest processor with free
// communication, total work / Σ speeds): no schedule is shorter.
func LowerBound(g *Graph, pl *Platform) (float64, error) {
	n := len(g.W)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range g.Edges {
		succ[e.From] = append(succ[e.From], e.To)
		indeg[e.To]++
	}
	// longest weighted path ending at each node, in topological order
	end := make([]float64, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
		end[v] = g.W[v]
	}
	cp, total := 0.0, 0.0
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		cp = math.Max(cp, end[u])
		for _, v := range succ[u] {
			end[v] = math.Max(end[v], end[u]+g.W[v])
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(queue) != n {
		return 0, fmt.Errorf("check: graph has a cycle")
	}
	speeds := 0.0
	for _, c := range pl.Cycles {
		speeds += 1 / c
	}
	for _, w := range g.W {
		total += w
	}
	return math.Max(cp*minCycle(pl), total/speeds), nil
}

type window struct{ start, end float64 }

// apart reports a window of a that overlaps a window of b; windows within
// one list may overlap each other. One sweep in start order keeps the
// furthest end seen on each side.
func apart(a, b []window) (window, window, bool) {
	type tagged struct {
		w    window
		side int
	}
	all := make([]tagged, 0, len(a)+len(b))
	for _, w := range a {
		all = append(all, tagged{w, 0})
	}
	for _, w := range b {
		all = append(all, tagged{w, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].w.start < all[j].w.start })
	var far [2]window
	var seen [2]bool
	for _, t := range all {
		if t.w.end <= t.w.start {
			continue
		}
		other := 1 - t.side
		if seen[other] && !before(far[other].end, t.w.start) {
			return far[other], t.w, false
		}
		if !seen[t.side] || t.w.end > far[t.side].end {
			far[t.side], seen[t.side] = t.w, true
		}
	}
	return window{}, window{}, true
}

// disjoint reports the first pair of overlapping windows, comparing each
// window against the furthest end seen so far (not only its neighbour), so
// a long window cannot hide behind a short one. Empty windows occupy
// nothing.
func disjoint(ws []window) (window, window, bool) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	var far window
	seen := false
	for _, w := range ws {
		if w.end <= w.start {
			continue
		}
		if seen && !before(far.end, w.start) {
			return far, w, false
		}
		if !seen || w.end > far.end {
			far, seen = w, true
		}
	}
	return window{}, window{}, true
}

// CheckSchedule checks s against graph g, platform pl and the named model
// ("oneport", "macro", "uniport" or "nooverlap").
func CheckSchedule(g *Graph, pl *Platform, s *Schedule, model string) error {
	n, p := len(g.W), len(pl.Cycles)
	switch model {
	case "oneport", "macro", "uniport", "nooverlap":
	default:
		return fmt.Errorf("check: unsupported model %q", model)
	}
	if s.Procs != p {
		return fmt.Errorf("check: schedule for %d processors, platform has %d", s.Procs, p)
	}
	if len(s.Tasks) != n {
		return fmt.Errorf("check: %d task events for %d tasks", len(s.Tasks), n)
	}
	at := make([]*Task, n)
	compute := make([][]window, p)
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Task < 0 || t.Task >= n || at[t.Task] != nil {
			return fmt.Errorf("check: task id %d out of range or placed twice", t.Task)
		}
		at[t.Task] = t
		if t.Proc < 0 || t.Proc >= p {
			return fmt.Errorf("check: task %d on processor %d of %d", t.Task, t.Proc, p)
		}
		if t.Start < 0 {
			return fmt.Errorf("check: task %d starts at %g", t.Task, t.Start)
		}
		if want := g.W[t.Task] * pl.Cycles[t.Proc]; !near(t.Finish-t.Start, want) {
			return fmt.Errorf("check: task %d lasts %g, want weight×cycle %g", t.Task, t.Finish-t.Start, want)
		}
		compute[t.Proc] = append(compute[t.Proc], window{t.Start, t.Finish})
	}
	for q := range compute {
		if a, b, ok := disjoint(compute[q]); !ok {
			return fmt.Errorf("check: tasks overlap on processor %d: [%g,%g) and [%g,%g)", q, a.start, a.end, b.start, b.end)
		}
	}

	type pair struct{ u, v int }
	data := make(map[pair]float64, len(g.Edges))
	for _, e := range g.Edges {
		data[pair{e.From, e.To}] = e.Data
	}
	comms := make(map[pair]*Comm, len(s.Comms))
	sends := make([][]window, p)
	recvs := make([][]window, p)
	for i := range s.Comms {
		c := &s.Comms[i]
		k := pair{c.From, c.To}
		d, ok := data[k]
		if !ok {
			return fmt.Errorf("check: communication for non-edge (%d,%d)", c.From, c.To)
		}
		if comms[k] != nil {
			return fmt.Errorf("check: edge (%d,%d) communicated twice", c.From, c.To)
		}
		comms[k] = c
		if !near(c.Data, d) {
			return fmt.Errorf("check: edge (%d,%d) carries %g, want %g", c.From, c.To, c.Data, d)
		}
		if len(c.Hops) == 0 {
			return fmt.Errorf("check: edge (%d,%d) has no hops", c.From, c.To)
		}
		for h, hop := range c.Hops {
			if hop.From < 0 || hop.From >= p || hop.To < 0 || hop.To >= p || hop.From == hop.To {
				return fmt.Errorf("check: edge (%d,%d) hop %d goes %d→%d", c.From, c.To, h, hop.From, hop.To)
			}
			if want := d * pl.Link[hop.From][hop.To]; !near(hop.Finish-hop.Start, want) {
				return fmt.Errorf("check: edge (%d,%d) hop %d lasts %g, want data×link %g", c.From, c.To, h, hop.Finish-hop.Start, want)
			}
			if h > 0 {
				prev := c.Hops[h-1]
				if prev.To != hop.From || !before(prev.Finish, hop.Start) {
					return fmt.Errorf("check: edge (%d,%d) hop chain broken at hop %d", c.From, c.To, h)
				}
			}
			sends[hop.From] = append(sends[hop.From], window{hop.Start, hop.Finish})
			recvs[hop.To] = append(recvs[hop.To], window{hop.Start, hop.Finish})
		}
	}
	for _, e := range g.Edges {
		u, v := at[e.From], at[e.To]
		c := comms[pair{e.From, e.To}]
		if u.Proc == v.Proc {
			if c != nil {
				return fmt.Errorf("check: same-processor edge (%d,%d) has a communication", e.From, e.To)
			}
			if !before(u.Finish, v.Start) {
				return fmt.Errorf("check: edge (%d,%d) on processor %d: consumer starts %g before producer ends %g", e.From, e.To, u.Proc, v.Start, u.Finish)
			}
			continue
		}
		if c == nil {
			return fmt.Errorf("check: cross-processor edge (%d,%d) has no communication", e.From, e.To)
		}
		first, last := c.Hops[0], c.Hops[len(c.Hops)-1]
		if first.From != u.Proc || last.To != v.Proc {
			return fmt.Errorf("check: edge (%d,%d) travels %d→%d, tasks are on %d and %d", e.From, e.To, first.From, last.To, u.Proc, v.Proc)
		}
		if !before(u.Finish, first.Start) {
			return fmt.Errorf("check: edge (%d,%d) leaves at %g before the producer ends at %g", e.From, e.To, first.Start, u.Finish)
		}
		if !before(last.Finish, v.Start) {
			return fmt.Errorf("check: edge (%d,%d) lands at %g after the consumer starts at %g", e.From, e.To, last.Finish, v.Start)
		}
	}

	if model == "macro" {
		return nil
	}
	for q := 0; q < p; q++ {
		if model == "uniport" {
			if a, b, ok := disjoint(append(append([]window(nil), sends[q]...), recvs[q]...)); !ok {
				return fmt.Errorf("check: uniport: processor %d ports busy twice: [%g,%g) and [%g,%g)", q, a.start, a.end, b.start, b.end)
			}
			continue
		}
		if a, b, ok := disjoint(sends[q]); !ok {
			return fmt.Errorf("check: oneport: processor %d sends overlap: [%g,%g) and [%g,%g)", q, a.start, a.end, b.start, b.end)
		}
		if a, b, ok := disjoint(recvs[q]); !ok {
			return fmt.Errorf("check: oneport: processor %d receives overlap: [%g,%g) and [%g,%g)", q, a.start, a.end, b.start, b.end)
		}
		if model == "nooverlap" {
			ports := append(append([]window(nil), sends[q]...), recvs[q]...)
			if a, b, ok := apart(compute[q], ports); !ok {
				return fmt.Errorf("check: nooverlap: processor %d computes while a port is busy: [%g,%g) and [%g,%g)", q, a.start, a.end, b.start, b.end)
			}
		}
	}
	return nil
}

// Reply checks a whole reply: the schedule, its makespan, speedup, task and
// comm counts, and that the makespan is not below LowerBound.
func Reply(g *Graph, pl *Platform, model string, r *Response) error {
	if err := CheckSchedule(g, pl, r.Schedule, model); err != nil {
		return err
	}
	ms := Makespan(r.Schedule)
	if !near(ms, r.Makespan) {
		return fmt.Errorf("check: reply makespan %g, schedule ends at %g", r.Makespan, ms)
	}
	if r.Tasks != len(g.W) || r.Comms != len(r.Schedule.Comms) {
		return fmt.Errorf("check: reply counts %d tasks / %d comms, schedule has %d / %d", r.Tasks, r.Comms, len(g.W), len(r.Schedule.Comms))
	}
	if ms > 0 && !near(r.Speedup, Speedup(g, pl, ms)) {
		return fmt.Errorf("check: reply speedup %g, want %g", r.Speedup, Speedup(g, pl, ms))
	}
	lb, err := LowerBound(g, pl)
	if err != nil {
		return err
	}
	if !before(lb, ms) {
		return fmt.Errorf("check: makespan %g below the lower bound %g", ms, lb)
	}
	return nil
}
