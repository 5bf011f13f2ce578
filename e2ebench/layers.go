package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"oneport/internal/cli"
	"oneport/internal/exp"
	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service"
	"oneport/internal/service/admit"
	"oneport/internal/service/journal"
	"oneport/internal/service/session"
	"oneport/internal/service/sweep"
)

// layerReplay is the traced run: it replays a workload's own problems
// through the public function of each layer, one span per call, and
// derives the per-layer metrics from the spans' self times. The program
// carries no tracing of its own; every span is opened and closed here.
func layerReplay(tr *tracer, e *env, ins []*instance) (map[string]metric, error) {
	bodies := make([][]byte, len(ins))
	for i, in := range ins {
		bodies[i] = in.body("", nil)
	}
	m := make(map[string]metric)

	// the request chain: decode, key, admission, compute, validate, gap
	// queries, encode; first untraced, then traced, for the overhead
	c := &chain{ctrl: service.New(service.Config{CacheSize: -1, Admission: &admit.Config{}}).Admission(), sc: heuristics.NewScratch()}
	tr.off = true
	t0 := time.Now()
	if err := c.run(tr, bodies); err != nil {
		return nil, err
	}
	untraced := float64(len(bodies)) / time.Since(t0).Seconds()
	tr.off = false
	c.reset()
	t0 = time.Now()
	if err := c.run(tr, bodies); err != nil {
		return nil, err
	}
	traced := float64(len(bodies)) / time.Since(t0).Seconds()
	n := float64(len(bodies))
	m["graph.decode_alloc_kb"] = metric{float64(c.decodeAlloc) / 1024 / n, "KB"}
	m["service.encode_alloc_kb"] = metric{float64(c.encodeAlloc) / 1024 / n, "KB"}
	m["sched.gap_queries"] = metric{float64(c.gapQueries) / n, "count"}
	m["sched.earliest_gap_ns"] = metric{float64(c.gapTime.Nanoseconds()) / float64(c.gapQueries), "ns"}
	m["trace.overhead_per_s"] = metric{traced - untraced, "1/s"}

	if err := kernels(tr, c.reqs, ins); err != nil {
		return nil, err
	}
	if err := serveLayers(tr, bodies, m); err != nil {
		return nil, err
	}
	if err := sessionLayers(tr, e, ins, c.reqs, m); err != nil {
		return nil, err
	}
	sweepWall, err := sweepLayers(tr, ins, m)
	if err != nil {
		return nil, err
	}

	self := tr.selfTimes()
	for _, l := range []struct{ span, name, unit string }{
		{"graph.decode", "graph.decode_ms", "ms"},
		{"service.key", "service.key_us", "us"},
		{"admit.acquire", "admit.acquire_us", "us"},
		{"heuristics.compute", "heuristics.compute_ms", "ms"},
		{"heuristics.heft", "heuristics.heft_ms", "ms"},
		{"heuristics.ilha", "heuristics.ilha_ms", "ms"},
		{"heuristics.cpop", "heuristics.cpop_ms", "ms"},
		{"heuristics.pct", "heuristics.pct_ms", "ms"},
		{"heuristics.dls", "heuristics.dls_ms", "ms"},
		{"sched.validate", "sched.validate_ms", "ms"},
		{"service.encode", "service.encode_ms", "ms"},
		{"service.serve", "service.serve_ms", "ms"},
		{"service.hit_serve", "service.hit_serve_us", "us"},
		{"service.stream_hit", "service.stream_hit_ms", "ms"},
		{"session.delta", "session.delta_ms", "ms"},
		{"journal.append", "journal.append_us", "us"},
		{"exp.point", "exp.point_ms", "ms"},
	} {
		st, ok := self[l.span]
		if !ok || st.count == 0 {
			return nil, fmt.Errorf("no %s spans recorded", l.span)
		}
		v := st.meanMs()
		if l.unit == "us" {
			v *= 1e3
		}
		m[l.name] = metric{v, l.unit}
	}
	// serve = the layers above + what the handler adds around them (body
	// read, normalize, pool, response write)
	layersSum := 0.0
	for _, s := range []string{"graph.decode", "service.key", "admit.acquire", "heuristics.compute", "sched.validate", "service.encode"} {
		layersSum += self[s].meanMs()
	}
	m["service.overhead_ms"] = metric{self["service.serve"].meanMs() - layersSum, "ms"}
	fmt.Printf("service.serve_ms %.4f = layer self times %.4f + overhead %.4f (%d ops)\n",
		self["service.serve"].meanMs(), layersSum, self["service.serve"].meanMs()-layersSum, self["service.serve"].count)
	fmt.Printf("tracing: %.2f ops/s traced, %.2f untraced\n", traced, untraced)
	m["sweep.overhead_ms"] = metric{sweepWall - self["exp.point"].meanMs(), "ms"}
	return m, nil
}

// chain replays each request body through the layers a cold /schedule
// runs, as direct calls.
type chain struct {
	ctrl *admit.Controller
	sc   *heuristics.Scratch
	reqs []*service.Request

	decodeAlloc, encodeAlloc uint64
	gapQueries               int
	gapTime                  time.Duration
}

func (c *chain) reset() {
	c.reqs, c.decodeAlloc, c.encodeAlloc, c.gapQueries, c.gapTime = nil, 0, 0, 0, 0
}

func allocated(tr *tracer) uint64 {
	if tr.off {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (c *chain) run(tr *tracer, bodies [][]byte) error {
	for _, body := range bodies {
		op := tr.ops
		tr.ops++
		root := tr.begin("op", -1, op)
		req := &service.Request{}
		a0 := allocated(tr)
		id := tr.begin("graph.decode", root, op)
		err := json.Unmarshal(body, req)
		tr.end(id)
		c.decodeAlloc += allocated(tr) - a0
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		c.reqs = append(c.reqs, req)
		model, err := cli.ParseModel(req.Model)
		if err != nil {
			return err
		}
		var sum [32]byte
		tr.timed("service.key", root, op, func() { sum = service.CanonicalSum(req) })
		id = tr.begin("admit.acquire", root, op)
		tk, err := c.ctrl.Acquire(context.Background(), "default", admit.Cheap, float64(req.Graph.NumNodes()))
		if err == nil {
			tk.Release()
		}
		tr.end(id)
		if err != nil {
			return fmt.Errorf("admission: %w", err)
		}
		fn, err := heuristics.ByNameTuned(req.Heuristic, heuristics.ILHAOptions{B: req.Options.B, ScanDepth: req.Options.ScanDepth},
			&heuristics.Tuning{ProbeParallelism: 1, Scratch: c.sc})
		if err != nil {
			return err
		}
		var s *sched.Schedule
		tr.timed("heuristics.compute", root, op, func() { s, err = fn(req.Graph, req.Platform, model) })
		if err != nil {
			return fmt.Errorf("%s: %w", req.Heuristic, err)
		}
		tr.timed("sched.validate", root, op, func() { err = sched.Validate(req.Graph, req.Platform, s, model) })
		if err != nil {
			return err
		}
		q, d, err := gapReplay(req.Graph, s)
		if err != nil {
			return err
		}
		c.gapQueries += q
		c.gapTime += d
		ms := s.Makespan()
		resp := service.Response{Key: fmt.Sprintf("%x", sum), Heuristic: req.Heuristic, Model: req.Model,
			Tasks: req.Graph.NumNodes(), Makespan: ms, Speedup: req.Platform.SequentialTime(req.Graph.TotalWeight()) / ms,
			Comms: s.CommCount(), Schedule: s}
		a0 = allocated(tr)
		tr.timed("service.encode", root, op, func() { _, err = json.Marshal(&resp) })
		c.encodeAlloc += allocated(tr) - a0
		if err != nil {
			return err
		}
		tr.end(root)
	}
	return nil
}

// gapSink keeps the gap results live.
var gapSink float64

// gapReplay rebuilds a schedule's timelines in start order and, before
// inserting each placement, asks sched.EarliestGap for it the question the
// heuristic asked: a task on its processor's compute timeline after its
// data is ready, a hop on the sender's send port and the receiver's
// receive port after its data left. A task's answer must not be later
// than where the schedule put it.
func gapReplay(g *graph.Graph, s *sched.Schedule) (int, time.Duration, error) {
	arrive := make(map[[2]int]float64, len(s.Comms))
	for i := range s.Comms {
		arrive[[2]int{s.Comms[i].FromTask, s.Comms[i].ToTask}] = s.Comms[i].Finish()
	}
	order := make([]int, len(s.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.Tasks[order[a]].Start < s.Tasks[order[b]].Start })
	compute := make([]sched.Intervals, s.Procs)
	var total time.Duration
	queries := 0
	for _, v := range order {
		ev := s.Tasks[v]
		ready := 0.0
		for _, p := range g.Pred(v) {
			t := s.Tasks[p.Node].Finish
			if s.Tasks[p.Node].Proc != ev.Proc {
				t = arrive[[2]int{p.Node, v}]
			}
			ready = max(ready, t)
		}
		t0 := time.Now()
		at := sched.EarliestGap(ready, ev.Finish-ev.Start, sched.View{Base: &compute[ev.Proc]})
		total += time.Since(t0)
		queries++
		gapSink += at
		if at > ev.Start+1e-6*(1+ev.Start) {
			return 0, 0, fmt.Errorf("gap replay: task %d fits at %g, schedule has it at %g", v, at, ev.Start)
		}
		compute[ev.Proc].Add(ev.Start, ev.Finish)
	}
	type hop struct {
		h     sched.Hop
		after float64
	}
	var hops []hop
	for i := range s.Comms {
		c := &s.Comms[i]
		after := s.Tasks[c.FromTask].Finish
		for _, h := range c.Hops {
			hops = append(hops, hop{h, after})
			after = h.Finish
		}
	}
	sort.Slice(hops, func(a, b int) bool { return hops[a].h.Start < hops[b].h.Start })
	send := make([]sched.Intervals, s.Procs)
	recv := make([]sched.Intervals, s.Procs)
	for _, h := range hops {
		t0 := time.Now()
		at := sched.EarliestGap(h.after, h.h.Finish-h.h.Start, sched.View{Base: &send[h.h.FromProc]}, sched.View{Base: &recv[h.h.ToProc]})
		total += time.Since(t0)
		queries++
		gapSink += at
		send[h.h.FromProc].Add(h.h.Start, h.h.Finish)
		recv[h.h.ToProc].Add(h.h.Start, h.h.Finish)
	}
	return queries, total, nil
}

// spread picks up to k of the problems with at most maxTasks tasks, evenly
// spaced over their sizes (the middle of each of k equal slices).
func spread(ins []*instance, maxTasks, k int) []int {
	var pick []int
	for i, in := range ins {
		if in.tasks() <= maxTasks {
			pick = append(pick, i)
		}
	}
	sort.SliceStable(pick, func(a, b int) bool { return ins[pick[a]].tasks() < ins[pick[b]].tasks() })
	if len(pick) <= k {
		return pick
	}
	out := make([]int, k)
	for j := range out {
		out[j] = pick[(2*j+1)*len(pick)/(2*k)]
	}
	return out
}

// kernelHeuristics are the heuristics timed one by one.
var kernelHeuristics = []string{"heft", "ilha", "cpop", "pct", "dls"}

// kernels runs each of the five heuristics on up to four of the
// workload's problems of at most 2000 tasks, spread over its sizes, each
// with its own platform and model.
func kernels(tr *tracer, reqs []*service.Request, ins []*instance) error {
	sc := heuristics.NewScratch()
	for _, i := range spread(ins, 2000, 4) {
		req := reqs[i]
		model, _ := cli.ParseModel(req.Model)
		op := tr.ops
		tr.ops++
		root := tr.begin("kernels", -1, op)
		for _, h := range kernelHeuristics {
			fn, err := heuristics.ByNameTuned(h, heuristics.ILHAOptions{}, &heuristics.Tuning{ProbeParallelism: 1, Scratch: sc})
			if err != nil {
				return err
			}
			tr.timed("heuristics."+h, root, op, func() { _, err = fn(req.Graph, req.Platform, model) })
			if err != nil {
				return fmt.Errorf("%s: %w", h, err)
			}
		}
		tr.end(root)
	}
	return nil
}

// roundTrip serves one body through a server's Handler in process.
func roundTrip(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
	return rec
}

// serveLayers times the whole Handler round trip on a cache-disabled
// server, then primes a default server with every body and times the
// repeats: byte-indexed hits and streamed hits apart. When no body of the
// workload streams, the streamed repeat is timed on a server that streams
// every reply.
func serveLayers(tr *tracer, bodies [][]byte, m map[string]metric) error {
	cold := service.New(service.Config{CacheSize: -1, Admission: &admit.Config{}}).Handler()
	for _, b := range bodies {
		op := tr.ops
		tr.ops++
		var rec *httptest.ResponseRecorder
		tr.timed("service.serve", -1, op, func() { rec = roundTrip(cold, b) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serve: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	repeat := func(srv *service.Server) (streamed int, err error) {
		h := srv.Handler()
		for _, b := range bodies {
			if rec := roundTrip(h, b); rec.Code != http.StatusOK {
				return 0, fmt.Errorf("prime: status %d", rec.Code)
			}
		}
		for _, b := range bodies {
			op := tr.ops
			tr.ops++
			id := tr.begin("service.hit", -1, op)
			rec := roundTrip(h, b)
			tr.end(id)
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("repeat: status %d", rec.Code)
			}
			if rec.Header().Get("X-Sched-Stream") != "" {
				tr.spans[id].name = "service.stream_hit"
				streamed++
			} else {
				tr.spans[id].name = "service.hit_serve"
			}
		}
		return streamed, nil
	}
	srv := newServer()
	streamed, err := repeat(srv)
	if err != nil {
		return err
	}
	st := srv.StatsSnapshot()
	m["service.body_hit_share"] = metric{float64(st.CacheBodyHits) / float64(st.CacheHits), "ratio"}
	if streamed == 0 {
		if _, err := repeat(service.New(service.Config{StreamBytes: 1})); err != nil {
			return err
		}
	}
	return nil
}

// sessionLayers opens sessions on up to eight of the workload's problems
// (spread over its sizes) on a journaled server, streams six deltas at
// each, then recovers them on a second server from the same journal, and
// appends the same delta records to a fresh journal log.
func sessionLayers(tr *tracer, e *env, ins []*instance, reqs []*service.Request, m map[string]metric) error {
	pick := spread(ins, 4000, 8)
	dir := filepath.Join(e.dir, "layer-journal")
	store, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		return err
	}
	srv := service.New(service.Config{SessionJournal: store})
	mgr := srv.Sessions()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(e.seed ^ 0x5e55))
	ids := make([]string, len(pick))
	for k, i := range pick {
		req := reqs[i]
		model, _ := cli.ParseModel(req.Model)
		id, _, err := mgr.Open(ctx, session.Params{Graph: req.Graph, Platform: req.Platform, Heuristic: req.Heuristic, Model: model,
			Opts: heuristics.ILHAOptions{B: req.Options.B, ScanDepth: req.Options.ScanDepth}, ProbePar: 1})
		if err != nil {
			return fmt.Errorf("session open: %w", err)
		}
		ids[k] = id
	}
	var records [][]byte
	replayed, tasks := 0, 0
	before := store.StatsSnapshot()
	for k, i := range pick {
		id := ids[k]
		g := cloneGraph(ins[i].cg)
		for k := 0; k < 6; k++ {
			d := nextDelta(rng, g)
			raw, err := json.Marshal(d)
			if err != nil {
				return err
			}
			var sd session.Delta
			if err := json.Unmarshal(raw, &sd); err != nil {
				return err
			}
			op := tr.ops
			tr.ops++
			var info *session.RunInfo
			tr.timed("session.delta", -1, op, func() { info, err = mgr.Delta(ctx, id, sd) })
			if err != nil {
				return fmt.Errorf("session delta: %w", err)
			}
			d.apply(g)
			replayed += info.Replayed
			tasks += info.Tasks
			records = append(records, raw)
		}
	}
	after := store.StatsSnapshot()
	m["session.replayed_share"] = metric{float64(replayed) / float64(tasks), "ratio"}
	m["journal.bytes_per_delta"] = metric{float64(after.AppendedBytes-before.AppendedBytes) / float64(after.Appends-before.Appends), "B"}
	m["journal.compactions"] = metric{float64(after.Compactions), "count"}

	store2, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		return err
	}
	srv2 := service.New(service.Config{SessionJournal: store2})
	op := tr.ops
	tr.ops++
	id := tr.begin("journal.recover", -1, op)
	rec, failed, err := srv2.RecoverSessions(ctx)
	tr.end(id)
	if err != nil || failed > 0 || rec != len(pick) {
		return fmt.Errorf("recovery: %d recovered, %d failed of %d: %v", rec, failed, len(pick), err)
	}
	m["journal.recover_ms"] = metric{float64((tr.spans[id].end - tr.spans[id].start).Nanoseconds()) / 1e6 / float64(rec), "ms"}
	// both servers' logs stay open until the process exits; nothing
	// writes to them again

	store3, err := journal.Open(journal.Config{Dir: filepath.Join(e.dir, "layer-append")})
	if err != nil {
		return err
	}
	lg, err := store3.Create("0e2eb", ins[pick[0]].body("", nil))
	if err != nil {
		return err
	}
	defer lg.Close()
	for _, r := range records {
		op := tr.ops
		tr.ops++
		tr.timed("journal.append", -1, op, func() { err = lg.Append(r) })
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepLayers runs the figure points among the workload's problems (the
// paper testbeds at their sizes, up to eight, or all of figure-sweep's)
// directly through exp.RunPointSpec, then through a coordinator and one
// sweep worker on loopback, twice: the second pass is served from the
// worker's result cache. It returns the coordinator's wall time per point
// of the first pass.
func sweepLayers(tr *tracer, ins []*instance, m map[string]metric) (float64, error) {
	figOf := make(map[string]exp.Figure)
	for _, f := range exp.Figures {
		figOf[f.Testbed] = f
	}
	type key struct {
		fig  string
		size int
	}
	seen := make(map[key]bool)
	var jobs []sweep.Job
	var specs []exp.PointSpec
	limit := 8
	if len(ins) == 2*len(exp.Figures)*len(exp.QuickSizes()) {
		limit = len(ins) // figure-sweep: every point
	}
	for _, in := range ins {
		f, ok := figOf[in.testbed]
		k := key{f.ID, in.size}
		if !ok || seen[k] || len(specs) == limit {
			continue
		}
		seen[k] = true
		specs = append(specs, exp.PointSpec{Figure: f, Size: in.size})
		jobs = append(jobs, sweep.Job{ID: len(jobs), Kind: sweep.KindFigure, Model: "oneport", Figure: f.ID, Size: in.size})
	}
	if len(specs) == 0 {
		return 0, fmt.Errorf("no figure points among the workload's problems")
	}
	pl := platform.Paper()
	for _, ps := range specs {
		op := tr.ops
		tr.ops++
		var err error
		tr.timed("exp.point", -1, op, func() { _, err = exp.RunPointSpec(ps, pl, sched.OnePort) })
		if err != nil {
			return 0, err
		}
	}
	lb, err := serve(sweep.Handler())
	if err != nil {
		return 0, err
	}
	defer lb.close()
	cl := newClient()
	defer cl.CloseIdleConnections()
	co := &sweep.Coordinator{Workers: []string{lb.url}, ChunkSize: 1, Client: cl}
	sweep.ResetWorkerCache()
	op := tr.ops
	tr.ops++
	id := tr.begin("sweep.run", -1, op)
	_, err = co.Run(context.Background(), pl, jobs)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if _, err := co.Run(context.Background(), pl, jobs); err != nil {
		return 0, err
	}
	m["sweep.cache_hits"] = metric{float64(co.Stats.CacheHits), "count"}
	return float64((tr.spans[id].end - tr.spans[id].start).Nanoseconds()) / 1e6 / float64(len(jobs)), nil
}
