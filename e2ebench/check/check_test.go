package check

import (
	"encoding/json"
	"strings"
	"testing"
)

// base is a valid one-port schedule of a four-task graph on three
// processors (cycle times 1, 2, 1; unit links):
//
//	0 → 1 (data 2), 0 → 2 (data 3), 1 → 3 (data 1), 2 → 3 (data 1)
//
// 0 and 1 run on p0, 2 on p1, 3 on p2.
func base() (*Graph, *Platform, *Schedule) {
	g := &Graph{
		W:     []float64{1, 1, 1, 2},
		Edges: []Edge{{0, 1, 2}, {0, 2, 3}, {1, 3, 1}, {2, 3, 1}},
	}
	pl := &Platform{
		Cycles: []float64{1, 2, 1},
		Link:   [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}},
	}
	s := &Schedule{
		Procs: 3,
		Tasks: []Task{
			{Task: 0, Proc: 0, Start: 0, Finish: 1},
			{Task: 1, Proc: 0, Start: 1, Finish: 2},
			{Task: 2, Proc: 1, Start: 4, Finish: 6},
			{Task: 3, Proc: 2, Start: 7, Finish: 9},
		},
		Comms: []Comm{
			{From: 0, To: 2, Data: 3, Hops: []Hop{{From: 0, To: 1, Start: 1, Finish: 4}}},
			{From: 1, To: 3, Data: 1, Hops: []Hop{{From: 0, To: 2, Start: 4, Finish: 5}}},
			{From: 2, To: 3, Data: 1, Hops: []Hop{{From: 1, To: 2, Start: 6, Finish: 7}}},
		},
	}
	return g, pl, s
}

func TestValidBaseAccepted(t *testing.T) {
	for _, model := range []string{"oneport", "macro", "uniport"} {
		g, pl, s := base()
		if err := CheckSchedule(g, pl, s, model); err != nil {
			t.Fatalf("%s: valid schedule rejected: %v", model, err)
		}
	}
	// without overlap, task 1 must wait until p0 has sent 0→2
	g, pl, s := base()
	s.Tasks[1].Start, s.Tasks[1].Finish = 4, 5
	s.Comms[1].Hops[0].Start, s.Comms[1].Hops[0].Finish = 5, 6
	if err := CheckSchedule(g, pl, s, "nooverlap"); err != nil {
		t.Fatalf("nooverlap: valid schedule rejected: %v", err)
	}
}

func TestInvalidSchedulesRejected(t *testing.T) {
	cases := []struct {
		name  string
		model string
		edit  func(g *Graph, s *Schedule)
		want  string
	}{
		{"task placed twice", "oneport", func(g *Graph, s *Schedule) { s.Tasks[1].Task = 0 }, "placed twice"},
		{"task missing", "oneport", func(g *Graph, s *Schedule) { s.Tasks = s.Tasks[:3] }, "task events"},
		{"bad processor", "oneport", func(g *Graph, s *Schedule) { s.Tasks[0].Proc = 3 }, "on processor"},
		{"negative start", "oneport", func(g *Graph, s *Schedule) { s.Tasks[0].Start, s.Tasks[0].Finish = -1, 0 }, "starts at"},
		{"wrong duration", "oneport", func(g *Graph, s *Schedule) { s.Tasks[2].Finish = 5 }, "weight×cycle"},
		{"tasks overlap", "oneport", func(g *Graph, s *Schedule) { s.Tasks[1].Start, s.Tasks[1].Finish = 0.5, 1.5 }, "overlap on processor"},
		{"same-processor order", "macro", func(g *Graph, s *Schedule) {
			s.Tasks[0].Start, s.Tasks[0].Finish = 1, 2
			s.Tasks[1].Start, s.Tasks[1].Finish = 0, 1
		}, "consumer starts"},
		{"comm before producer ends", "oneport", func(g *Graph, s *Schedule) {
			s.Comms[0].Hops[0].Start, s.Comms[0].Hops[0].Finish = 0.5, 3.5
		}, "before the producer ends"},
		{"comm after consumer starts", "oneport", func(g *Graph, s *Schedule) {
			s.Comms[2].Hops[0].Start, s.Comms[2].Hops[0].Finish = 6.5, 7.5
		}, "after the consumer starts"},
		{"hop duration", "oneport", func(g *Graph, s *Schedule) { s.Comms[0].Hops[0].Finish = 3 }, "data×link"},
		{"wrong data", "oneport", func(g *Graph, s *Schedule) { s.Comms[0].Data = 2 }, "carries"},
		{"comm missing", "oneport", func(g *Graph, s *Schedule) { s.Comms = s.Comms[1:] }, "has no communication"},
		{"comm for same-processor edge", "oneport", func(g *Graph, s *Schedule) {
			s.Comms = append(s.Comms, Comm{From: 0, To: 1, Data: 2, Hops: []Hop{{From: 0, To: 1, Start: 1, Finish: 3}}})
		}, "same-processor edge"},
		{"comm for non-edge", "oneport", func(g *Graph, s *Schedule) {
			s.Comms = append(s.Comms, Comm{From: 0, To: 3, Data: 1, Hops: []Hop{{From: 0, To: 2, Start: 1, Finish: 2}}})
		}, "non-edge"},
		{"wrong endpoints", "oneport", func(g *Graph, s *Schedule) { s.Comms[0].Hops[0].To = 2 }, "travels"},
		{"broken hop chain", "oneport", func(g *Graph, s *Schedule) {
			s.Comms[0].Hops = []Hop{{From: 0, To: 2, Start: 1, Finish: 4}, {From: 0, To: 1, Start: 4, Finish: 7}}
		}, "chain broken"},
		{"oneport sends overlap", "oneport", func(g *Graph, s *Schedule) {
			// p0 sends 0→2 over [1,4) and 1→3 over [3,4)
			s.Comms[1].Hops[0].Start, s.Comms[1].Hops[0].Finish = 3, 4
			s.Tasks[3].Start, s.Tasks[3].Finish = 7, 9
		}, "sends overlap"},
		{"oneport receives overlap", "oneport", func(g *Graph, s *Schedule) {
			// p2 receives 1→3 over [6,7) and 2→3 over [6,7)
			s.Comms[1].Hops[0].Start, s.Comms[1].Hops[0].Finish = 6, 7
		}, "receives overlap"},
		{"uniport send during receive", "uniport", func(g *Graph, s *Schedule) {
			// a new task on p1 sends over [2,3) while p1 receives 0→2
			// over [1,4)
			g.W = append(g.W, 1)
			g.Edges = append(g.Edges, Edge{4, 3, 1})
			s.Tasks = append(s.Tasks, Task{Task: 4, Proc: 1, Start: 0, Finish: 2})
			s.Comms = append(s.Comms, Comm{From: 4, To: 3, Data: 1, Hops: []Hop{{From: 1, To: 2, Start: 2, Finish: 3}}})
		}, "uniport"},
		{"nooverlap compute during send", "nooverlap", func(g *Graph, s *Schedule) {
			// p0 computes task 1 over [1,2) while sending 0→2 over [1,4)
		}, "nooverlap"},
		{"long window hidden behind an empty one", "oneport", func(g *Graph, s *Schedule) {
			g.W = append(g.W, 0, 1)
			g.Edges = append(g.Edges, Edge{0, 4, 0}, Edge{0, 5, 1})
			s.Tasks = append(s.Tasks,
				Task{Task: 4, Proc: 2, Start: 1, Finish: 1},
				Task{Task: 5, Proc: 2, Start: 4, Finish: 5})
			s.Comms = append(s.Comms,
				Comm{From: 0, To: 4, Data: 0, Hops: []Hop{{From: 0, To: 2, Start: 1, Finish: 1}}},
				Comm{From: 0, To: 5, Data: 1, Hops: []Hop{{From: 0, To: 2, Start: 2, Finish: 3}}})
		}, "sends overlap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, pl, s := base()
			c.edit(g, s)
			err := CheckSchedule(g, pl, s, c.model)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestPortRulesDependOnModel(t *testing.T) {
	// the oneport receive clash is legal under macro, which has no ports
	g, pl, s := base()
	s.Comms[1].Hops[0].Start, s.Comms[1].Hops[0].Finish = 6, 7
	if err := CheckSchedule(g, pl, s, "macro"); err != nil {
		t.Fatalf("macro rejected a port clash: %v", err)
	}
	if err := CheckSchedule(g, pl, s, "oneport"); err == nil {
		t.Fatal("oneport accepted two overlapping receives")
	}
}

func TestReplyChecksFigures(t *testing.T) {
	g, pl, s := base()
	ok := &Response{Tasks: 4, Comms: 3, Makespan: 9, Speedup: Speedup(g, pl, 9), Schedule: s}
	if err := Reply(g, pl, "oneport", ok); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	for name, edit := range map[string]func(r *Response){
		"makespan": func(r *Response) { r.Makespan = 8 },
		"speedup":  func(r *Response) { r.Speedup *= 2 },
		"tasks":    func(r *Response) { r.Tasks = 3 },
		"comms":    func(r *Response) { r.Comms = 2 },
	} {
		r := *ok
		edit(&r)
		if err := Reply(g, pl, "oneport", &r); err == nil {
			t.Errorf("reply with a wrong %s accepted", name)
		}
	}
}

func TestLowerBound(t *testing.T) {
	g, pl, _ := base()
	// critical path 0→2→3 weighs 4 on the fastest cycle 1; total work 5
	// over speeds 1 + 0.5 + 1 gives 2
	lb, err := LowerBound(g, pl)
	if err != nil || lb != 4 {
		t.Fatalf("LowerBound = %g, %v; want 4", lb, err)
	}
	// ten independent unit tasks: total work 15 over speeds 2.5 dominates
	g.W = append(g.W, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	if lb, _ := LowerBound(g, pl); lb != 15/2.5 {
		t.Fatalf("LowerBound = %g, want %g", lb, 15/2.5)
	}
	g.Edges = append(g.Edges, Edge{3, 0, 1})
	if _, err := LowerBound(g, pl); err == nil {
		t.Fatal("a cyclic graph got a bound")
	}
}

func TestParseRoundTrip(t *testing.T) {
	g, err := ParseGraph([]byte(`{"nodes":[{"weight":2,"label":"a"},{"weight":3}],"edges":[{"From":0,"To":1,"Data":4}]}`))
	if err != nil || len(g.W) != 2 || g.W[1] != 3 || g.Edges[0] != (Edge{0, 1, 4}) {
		t.Fatalf("bad graph decode: %+v %v", g, err)
	}
	pl, err := ParsePlatform([]byte(`{"cycles":[1,2,4],"link":[[0,1,null],[1,0,2],[null,2,0]]}`))
	if err != nil || pl.Link[0][2] < 1e300 || pl.Link[1][2] != 2 || pl.Cycles[2] != 4 {
		t.Fatalf("bad platform decode: %+v %v", pl, err)
	}
	uni, _ := ParsePlatform([]byte(`{"cycles":[1,1],"uniform_link":3}`))
	if uni.Link[0][1] != 3 || uni.Link[1][1] != 0 {
		t.Fatalf("bad uniform link matrix %v", uni.Link)
	}
	if r, err := ParseResponse([]byte(`{"error":"boom"}`)); err == nil || r != nil {
		t.Fatal("error reply accepted")
	}
	if _, err := ParseResponse([]byte(`{"makespan":1}`)); err == nil {
		t.Fatal("reply without a schedule accepted")
	}
	var s Schedule
	if err := json.Unmarshal([]byte(`{"tasks":[{"task":0,"proc":1,"start":0,"finish":2}],"comms":[],"procs":2}`), &s); err != nil || s.Tasks[0].Proc != 1 {
		t.Fatalf("schedule decode: %v %+v", err, s)
	}
}
