package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"oneport/e2ebench/check"
	"oneport/internal/exp"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service/sweep"
	"oneport/internal/testbeds"
)

// figureSweep drives the paper's evaluation (Figures 7–12, HEFT against
// ILHA under the one-port model on the paper platform) through a
// sweep.Coordinator and one in-process sweep worker on loopback. The
// worker is listed twice, so two chunks of one point each are in flight
// at a time: two closed-loop clients. Every round empties the worker's
// result cache first, so every point is computed.
type figureSweep struct {
	e     *env
	jobs  []sweep.Job
	lb    *loopback
	coord *sweep.Coordinator
	lat   *timingTransport

	points [][]sweep.Result // every round's results, for check
}

func newFigureSweep(e *env) workload { return &figureSweep{e: e} }

// prepare lists fig7–fig12 at exp.QuickSizes, largest size first (so a
// round ends on short points, not one long one), figures shuffled by the
// seed within each size.
func (w *figureSweep) prepare() error {
	rng := rand.New(rand.NewSource(w.e.seed))
	sizes := exp.QuickSizes()
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for _, n := range sizes {
		for _, k := range rng.Perm(len(exp.Figures)) {
			w.jobs = append(w.jobs, sweep.Job{ID: len(w.jobs), Kind: sweep.KindFigure, Model: "oneport", Figure: exp.Figures[k].ID, Size: n})
		}
	}
	return nil
}

// timingTransport records the round trip of every shard POST, from the
// request to the close of the reply body.
type timingTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	trips [][2]time.Time
}

type timedBody struct {
	io.ReadCloser
	t0 time.Time
	tt *timingTransport
}

func (b *timedBody) Close() error {
	end := time.Now()
	b.tt.mu.Lock()
	b.tt.trips = append(b.tt.trips, [2]time.Time{b.t0, end})
	b.tt.mu.Unlock()
	return b.ReadCloser.Close()
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t0: t0, tt: t}
	return resp, nil
}

// take returns and clears the recorded round trips (start, end).
func (t *timingTransport) take() [][2]time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.trips
	t.trips = nil
	return out
}

// setup starts the worker and warms it with one full untimed round.
func (w *figureSweep) setup() (func(), error) {
	lb, err := serve(sweep.Handler())
	if err != nil {
		return nil, err
	}
	cl := newClient()
	w.lat = &timingTransport{base: cl.Transport}
	w.lb = lb
	w.coord = &sweep.Coordinator{Workers: []string{lb.url, lb.url}, ChunkSize: 1, Client: &http.Client{Transport: w.lat}}
	stop := func() { lb.close(); cl.CloseIdleConnections() }
	sweep.ResetWorkerCache()
	if _, err := w.coord.Run(context.Background(), platform.Paper(), w.jobs); err != nil {
		stop()
		return nil, err
	}
	w.lat.take()
	return stop, nil
}

func (w *figureSweep) measure(seconds float64) (*phase, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	pl := platform.Paper()
	ph := startPhase()
	for time.Now().Before(deadline) || ph.attempted == 0 {
		sweep.ResetWorkerCache()
		res, err := w.coord.Run(context.Background(), pl, w.jobs)
		lat := w.lat.take()
		ph.attempted += len(w.jobs)
		bad := err != nil
		for _, r := range res {
			bad = bad || r.Err != "" || r.Point == nil
		}
		if bad || len(lat) != len(w.jobs) {
			// a round that lost a point is counted failed as a whole, so
			// every recorded latency belongs to a completed point
			ph.failed += len(w.jobs)
			fmt.Printf("failed round: %v\n", err)
			continue
		}
		for i, trip := range lat {
			ph.recordSpan(i%clients, trip[0], trip[1])
		}
		w.points = append(w.points, res)
	}
	ph.stop()
	ph.extra = append(ph.extra, fmt.Sprintf("figure-sweep: %d rounds of %d points", ph.attempted/len(w.jobs), len(w.jobs)))
	return ph, nil
}

// check verifies every point's speedups lie in (0, Σ speeds / fastest
// speed], that every round reproduced the first one exactly, and
// reschedules a seeded sample of points directly, checking the schedules
// with the separate checker and their makespans against the points'.
func (w *figureSweep) check() error {
	pl := platform.Paper()
	ceiling := check.MaxSpeedup(&check.Platform{Cycles: paperCycles})
	var first map[int]exp.Point
	for r, round := range w.points {
		got := make(map[int]exp.Point, len(round))
		for _, res := range round {
			p := *res.Point
			for _, s := range []float64{p.HEFTSpeedup, p.ILHASpeedup} {
				if !(s > 0 && s <= ceiling*(1+1e-9)) {
					return fmt.Errorf("round %d job %d: speedup %g outside (0, %g]", r, res.Job.ID, s, ceiling)
				}
			}
			got[res.Job.ID] = p
		}
		if len(got) != len(w.jobs) {
			return fmt.Errorf("round %d returned %d distinct points for %d jobs", r, len(got), len(w.jobs))
		}
		if first == nil {
			first = got
		} else {
			for id, p := range got {
				if p != first[id] {
					return fmt.Errorf("round %d job %d differs from round 0: %+v vs %+v", r, id, p, first[id])
				}
			}
		}
	}
	if first == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(w.e.seed ^ 0xf16))
	cpl, err := (&instance{cycles: paperCycles}).platform()
	if err != nil {
		return err
	}
	for _, k := range rng.Perm(len(w.jobs))[:4] {
		job := w.jobs[k]
		fig, err := exp.FigureByID(job.Figure)
		if err != nil {
			return err
		}
		g, err := testbeds.ByName(fig.Testbed, job.Size, exp.CommRatio)
		if err != nil {
			return err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return err
		}
		cg, err := check.ParseGraph(raw)
		if err != nil {
			return err
		}
		p := first[job.ID]
		for _, h := range []struct {
			name string
			want float64
		}{{"heft", p.HEFTMakespan}, {"ilha", p.ILHAMakespan}} {
			fn, err := heuristics.ByName(h.name, heuristics.ILHAOptions{B: fig.B})
			if err != nil {
				return err
			}
			s, err := fn(g, pl, sched.OnePort)
			if err != nil {
				return err
			}
			sraw, err := json.Marshal(s)
			if err != nil {
				return err
			}
			var cs check.Schedule
			if err := json.Unmarshal(sraw, &cs); err != nil {
				return err
			}
			if err := check.CheckSchedule(cg, cpl, &cs, "oneport"); err != nil {
				return fmt.Errorf("%s size %d %s: %w", fig.ID, job.Size, h.name, err)
			}
			if ms := check.Makespan(&cs); ms != h.want {
				return fmt.Errorf("%s size %d %s: direct makespan %g, sweep point %g", fig.ID, job.Size, h.name, ms, h.want)
			}
		}
	}
	return nil
}

// instances are the sweep's problems as /schedule requests: every point
// once with HEFT and once with ILHA at the figure's B.
func (w *figureSweep) instances() ([]*instance, error) {
	var out []*instance
	for _, job := range w.jobs {
		fig, err := exp.FigureByID(job.Figure)
		if err != nil {
			return nil, err
		}
		g, err := testbeds.ByName(fig.Testbed, job.Size, exp.CommRatio)
		if err != nil {
			return nil, err
		}
		for _, h := range []string{"heft", "ilha"} {
			in, err := newInstance(fig.Testbed, job.Size, g, h, "oneport", paperCycles, nil)
			if err != nil {
				return nil, err
			}
			if h == "ilha" {
				in.b = fig.B
			}
			out = append(out, in)
		}
	}
	return out, nil
}

func (w *figureSweep) layers(tr *tracer) (map[string]metric, error) {
	ins, err := w.instances()
	if err != nil {
		return nil, err
	}
	return layerReplay(tr, w.e, ins)
}
