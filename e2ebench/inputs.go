package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"oneport/e2ebench/check"
	"oneport/internal/exp"
	"oneport/internal/graph"
	"oneport/internal/testbeds"
)

// instance is one scheduling problem as the benchmark sends it: a graph,
// a platform (the paper's fully connected unit-link shape when link is
// nil), a heuristic and a model. body renders it as a /schedule request;
// a tag, when given, is prefixed to the label of the first task, which
// gives every round of schedule-cold distinct bytes and cache keys while
// the problem, and so the work and the reply's size, stay the same.
type instance struct {
	testbed   string // testbeds.ByName name, or "random" for RandomLayered
	size      int
	heuristic string
	model     string
	b         int // ILHA chunk size; 0 lets ILHA choose
	cg        *check.Graph
	graphJSON []byte
	labelAt   int // offset of the first label's text in graphJSON (0: none)
	cycles    []float64
	link      [][]float64
}

// paperCycles is the paper's 10-processor platform (§5.2).
var paperCycles = []float64{6, 6, 6, 6, 6, 10, 10, 10, 15, 15}

func newInstance(testbed string, size int, g *graph.Graph, heur, model string, cycles []float64, link [][]float64) (*instance, error) {
	raw, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	cg, err := check.ParseGraph(raw)
	if err != nil {
		return nil, err
	}
	in := &instance{testbed: testbed, size: size, heuristic: heur, model: model, cg: cg, graphJSON: raw, cycles: cycles, link: link}
	if i := bytes.Index(raw, []byte(`"label":"`)); i >= 0 {
		in.labelAt = i + len(`"label":"`)
	}
	return in, nil
}

func (in *instance) tasks() int { return len(in.cg.W) }

// body appends the request JSON to dst, with tag prefixed to the first
// task's label.
func (in *instance) body(tag string, dst []byte) []byte {
	dst = append(dst, `{"heuristic":"`...)
	dst = append(dst, in.heuristic...)
	dst = append(dst, `","model":"`...)
	dst = append(dst, in.model...)
	dst = append(dst, `",`...)
	if in.b > 0 {
		dst = append(dst, `"options":{"b":`...)
		dst = strconv.AppendInt(dst, int64(in.b), 10)
		dst = append(dst, `},`...)
	}
	dst = append(dst, `"graph":`...)
	dst = append(dst, in.graphJSON[:in.labelAt]...)
	dst = append(dst, tag...)
	dst = append(dst, in.graphJSON[in.labelAt:]...)
	dst = append(dst, `,"platform":`...)
	dst = in.platformJSON(dst)
	return append(dst, '}')
}

// platformJSON appends the platform JSON to dst.
func (in *instance) platformJSON(dst []byte) []byte {
	dst = append(dst, `{"cycles":[`...)
	for i, c := range in.cycles {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, c, 'g', -1, 64)
	}
	dst = append(dst, ']')
	if in.link == nil {
		dst = append(dst, `,"uniform_link":1`...)
	} else {
		dst = append(dst, `,"link":[`...)
		for q, row := range in.link {
			if q > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for r, l := range row {
				if r > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendFloat(dst, l, 'g', -1, 64)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// platform is the checker's reading of the platform JSON.
func (in *instance) platform() (*check.Platform, error) {
	return check.ParsePlatform(in.platformJSON(nil))
}

// roundTag is the label prefix of round r's requests.
func roundTag(r int) string { return "r" + strconv.Itoa(r) + "." }

// warmTag is the label prefix of set-up warm-up requests: no timed round
// uses it, so warm-up never pre-fills a timed request's cache entry.
const warmTag = "warm."

// sizeClasses gives each testbed family a small, medium and large size;
// "random" sizes are RandomLayered layer counts (width = layers+4).
var sizeClasses = map[string][3]int{
	"lu":        {14, 30, 56},
	"laplace":   {10, 24, 44},
	"stencil":   {10, 24, 52},
	"forkjoin":  {60, 300, 1500},
	"doolittle": {14, 30, 56},
	"ldmt":      {10, 22, 40},
	"random":    {8, 18, 36},
}

var (
	mixTestbeds   = []string{"lu", "laplace", "stencil", "forkjoin", "doolittle", "ldmt", "random", "random"}
	mixHeuristics = []string{"heft", "ilha", "cpop", "pct"}
	mixModels     = []string{"oneport", "macro", "uniport", "nooverlap"}
)

// buildGraph makes one graph of a family at a size; a "random" graph is
// drawn from rng.
func buildGraph(rng *rand.Rand, testbed string, size int) (*graph.Graph, error) {
	if testbed == "random" {
		return testbeds.RandomLayered(rng.Int63(), size, size+4, 6, exp.CommRatio), nil
	}
	return testbeds.ByName(testbed, size, exp.CommRatio)
}

// randomPlatform is a heterogeneous, fully connected 8-processor platform
// with cycle times 2..15 and symmetric link costs 0.5..2.
func randomPlatform(rng *rand.Rand) ([]float64, [][]float64) {
	const p = 8
	cycles := make([]float64, p)
	link := make([][]float64, p)
	for q := range cycles {
		cycles[q] = float64(2 + rng.Intn(14))
		link[q] = make([]float64, p)
	}
	for q := 0; q < p; q++ {
		for r := q + 1; r < p; r++ {
			l := 0.5 + 0.5*float64(rng.Intn(4))
			link[q][r], link[r][q] = l, l
		}
	}
	return cycles, link
}

// mixSlot builds slot i of the /schedule mix: the testbed, heuristic,
// model and platform kind follow fixed cycles over the slot index, so
// every seed has the same make-up and nearly the same cost; the seed draws
// the random graphs, the random platforms and the order. Slots 5 and 21
// run DLS on a small graph.
func mixSlot(rng *rand.Rand, i, class int) (*instance, error) {
	tb := mixTestbeds[i%len(mixTestbeds)]
	heur := mixHeuristics[(i/2)%len(mixHeuristics)]
	if i == 5 || i == 21 {
		heur, class = "dls", 0
	}
	model := mixModels[(i/8+i)%len(mixModels)]
	size := sizeClasses[tb][class]
	g, err := buildGraph(rng, tb, size)
	if err != nil {
		return nil, err
	}
	cycles, link := paperCycles, [][]float64(nil)
	if (i/4)%2 == 1 {
		cycles, link = randomPlatform(rng)
	}
	return newInstance(tb, size, g, heur, model, cycles, link)
}

// coldMix is the 32-request round of schedule-cold: sizes cycle through
// the small, medium and large classes.
func coldMix(seed int64) ([]*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*instance, 32)
	for i := range out {
		in, err := mixSlot(rng, i, (i/8+i)%3)
		if err != nil {
			return nil, err
		}
		if in.labelAt == 0 {
			return nil, fmt.Errorf("slot %d: %s graph has no label to tag", i, in.testbed)
		}
		out[i] = in
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out, nil
}

// repeatSet is the 32-body set of schedule-repeat: 30 small and medium
// requests, and two large STENCIL/HEFT/one-port requests on the paper
// platform whose responses are streamed: size 55 encodes below 1 MiB but
// is estimated above it, size 73 encodes above it. They carry most of the
// workload's cost, so their sizes do not depend on the seed.
func repeatSet(seed int64) ([]*instance, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*instance, 0, 32)
	for i := 0; len(out) < 30; i++ {
		in, err := mixSlot(rng, i, (i/8+i)%2)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	for _, n := range []int{55, 73} {
		in, err := newInstance("stencil", n, testbeds.Stencil(n, exp.CommRatio), "heft", "oneport", paperCycles, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out, nil
}

// encodeGraph renders a checker graph in the program's graph JSON form.
func encodeGraph(g *check.Graph) []byte {
	b := make([]byte, 0, 32*len(g.W)+48*len(g.Edges))
	b = append(b, `{"nodes":[`...)
	for i, w := range g.W {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"weight":`...)
		b = strconv.AppendFloat(b, w, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, `],"edges":[`...)
	for i, e := range g.Edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"From":%d,"To":%d,"Data":`, e.From, e.To)
		b = strconv.AppendFloat(b, e.Data, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func cloneGraph(g *check.Graph) *check.Graph {
	return &check.Graph{W: append([]float64(nil), g.W...), Edges: append([]check.Edge(nil), g.Edges...)}
}

// deltaOp is one graph mutation of a session delta.
type deltaOp struct {
	Op     string   `json:"op"`
	Task   *int     `json:"task,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
	From   *int     `json:"from,omitempty"`
	To     *int     `json:"to,omitempty"`
	Data   *float64 `json:"data,omitempty"`
}

type sessionDelta struct {
	Graph []deltaOp `json:"graph"`
}

// nextDelta draws one delta for a session whose graph is g: 10 in 16
// re-weigh a late task (the replay keeps a long prefix), 5 in 16 an early
// one (a short prefix), 1 in 16 grafts a new task under a late one.
func nextDelta(rng *rand.Rand, g *check.Graph) sessionDelta {
	n := len(g.W)
	late := func() int { return n - 1 - rng.Intn(n/7+1) }
	switch k := rng.Intn(16); {
	case k < 15:
		t := late()
		if k >= 10 {
			t = rng.Intn(n/7 + 1)
		}
		w := float64(1 + rng.Intn(int(2*g.W[t])+2))
		return sessionDelta{Graph: []deltaOp{{Op: "set_weight", Task: &t, Weight: &w}}}
	default:
		u, v := late(), n
		w := float64(1 + rng.Intn(3))
		d := exp.CommRatio * g.W[u]
		return sessionDelta{Graph: []deltaOp{{Op: "add_task", Weight: &w}, {Op: "add_edge", From: &u, To: &v, Data: &d}}}
	}
}

// apply mutates the checker's copy of the graph the way the session must.
func (d sessionDelta) apply(g *check.Graph) {
	for _, op := range d.Graph {
		switch op.Op {
		case "set_weight":
			g.W[*op.Task] = *op.Weight
		case "add_task":
			g.W = append(g.W, *op.Weight)
		case "add_edge":
			g.Edges = append(g.Edges, check.Edge{From: *op.From, To: *op.To, Data: *op.Data})
		}
	}
}
