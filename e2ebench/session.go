package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"oneport/e2ebench/check"
	"oneport/internal/exp"
	"oneport/internal/service"
	"oneport/internal/service/journal"
	"oneport/internal/testbeds"
)

// sessionDeltas drives scheduling sessions over HTTP. An untimed history
// fills a journal directory with 48 LU and LAPLACE sessions (the same
// sizes for every seed) and four seeded deltas each; every set-up restarts
// a server on a copy of that directory (the default fsync policy) and
// recovers the sessions. The timed phase streams
// a seeded delta chain at them, one delta per session per round.
type sessionDeltas struct {
	e    *env
	ins  []*instance
	base string // the filled journal directory

	ids    []string
	graphs []*check.Graph // each session's graph after the history
	turns  []*turn

	srv *service.Server
	lb  *loopback
	cl  *http.Client

	spools [clients]*spool
	setups int
}

// turn orders one session's deltas: op step k waits until step k−1 is done.
type turn struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
	g    *check.Graph
	rng  *rand.Rand
}

const (
	numSessions  = 48
	historySteps = 4
)

func newSessionDeltas(e *env) workload { return &sessionDeltas{e: e} }

// sessionHeuristic is HEFT for two sessions in three and PCT for the third:
// both replay the untouched prefix of their previous run.
func sessionHeuristic(s int) string {
	if s%3 == 2 {
		return "pct"
	}
	return "heft"
}

func (w *sessionDeltas) prepare() error {
	// four large sessions make the costliest few percent of deltas real
	// work (their early-task edits), so the p99 is a property of the
	// program rather than of scheduling noise
	for s := 0; s < numSessions; s++ {
		tb, size := "lu", 30+s/2%7
		if s%24 < 2 {
			size = 56
		}
		g := testbeds.LU(size, exp.CommRatio)
		if s%2 == 1 {
			tb, size = "laplace", 22+s/2%5
			if s%24 < 2 {
				size = 40
			}
			g = testbeds.Laplace(size, exp.CommRatio)
		}
		in, err := newInstance(tb, size, g, sessionHeuristic(s), "oneport", paperCycles, nil)
		if err != nil {
			return err
		}
		w.ins = append(w.ins, in)
	}
	w.base = filepath.Join(w.e.dir, "journal-base")
	store, err := journal.Open(journal.Config{Dir: w.base})
	if err != nil {
		return err
	}
	srv := service.New(service.Config{SessionJournal: store})
	if _, _, err := srv.RecoverSessions(context.Background()); err != nil {
		return err
	}
	lb, err := serve(srv.Handler())
	if err != nil {
		return err
	}
	defer lb.close()
	cl := newClient()
	defer cl.CloseIdleConnections()
	var buf bytes.Buffer
	hist := rand.New(rand.NewSource(w.e.seed ^ 0x415))
	for s, in := range w.ins {
		code, _, err := post(cl, lb.url+"/session", in.body("", nil), &buf)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("session open: status %d: %v %.200s", code, err, buf.Bytes())
		}
		var open struct {
			ID string `json:"session_id"`
		}
		if err := json.Unmarshal(buf.Bytes(), &open); err != nil {
			return err
		}
		if _, err := checkReply(in, buf.Bytes()); err != nil {
			return fmt.Errorf("session %d open: %w", s, err)
		}
		g := cloneGraph(in.cg)
		for k := 0; k < historySteps; k++ {
			d := nextDelta(hist, g)
			raw, _ := json.Marshal(d)
			code, _, err := post(cl, lb.url+"/session/"+open.ID+"/delta", raw, &buf)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("history delta: status %d: %v %.200s", code, err, buf.Bytes())
			}
			d.apply(g)
		}
		w.ids = append(w.ids, open.ID)
		w.graphs = append(w.graphs, g)
	}
	return srv.Sessions().SyncJournals()
}

// setup is a restart: a server on a fresh copy of the filled journal
// directory recovers every session, then answers one readiness probe.
func (w *sessionDeltas) setup() (func(), error) {
	dir := filepath.Join(w.e.dir, fmt.Sprintf("journal-%d", w.setups))
	w.setups++
	if err := os.CopyFS(dir, os.DirFS(w.base)); err != nil {
		return nil, err
	}
	store, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	w.srv = service.New(service.Config{SessionJournal: store})
	rec, failed, err := w.srv.RecoverSessions(context.Background())
	if err != nil || failed > 0 || rec != numSessions {
		return nil, fmt.Errorf("recovered %d of %d sessions (%d failed): %v", rec, numSessions, failed, err)
	}
	if w.lb, err = serve(w.srv.Handler()); err != nil {
		return nil, err
	}
	w.cl = newClient()
	stop := func() { w.lb.close(); w.cl.CloseIdleConnections() }
	resp, err := w.cl.Get(w.lb.url + "/readyz")
	if err != nil {
		stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		stop()
		return nil, fmt.Errorf("readyz answered %d after recovery", resp.StatusCode)
	}
	return stop, nil
}

func (w *sessionDeltas) measure(seconds float64) (*phase, error) {
	w.turns = make([]*turn, numSessions)
	for s := range w.turns {
		t := &turn{g: cloneGraph(w.graphs[s]), rng: rand.New(rand.NewSource(w.e.seed*131 + int64(s)))}
		t.cond = sync.NewCond(&t.mu)
		w.turns[s] = t
	}
	for c := range w.spools {
		sp, err := newSpool(filepath.Join(w.e.dir, fmt.Sprintf("spool-%d", c)))
		if err != nil {
			return nil, err
		}
		w.spools[c] = sp
	}
	var failed atomic.Int64
	var firstErr sync.Once
	rs := newRounds(numSessions, seconds)
	ph := startPhase()
	runClients(func(c int) {
		var buf bytes.Buffer
		for {
			i, ok := rs.take()
			if !ok {
				return
			}
			s, step := i%numSessions, i/numSessions
			t := w.turns[s]
			t.mu.Lock()
			for t.next != step {
				t.cond.Wait()
			}
			d := nextDelta(t.rng, t.g)
			raw, err := json.Marshal(d)
			var code int
			var d0 time.Duration
			if err == nil {
				t0 := time.Now()
				code, _, err = post(w.cl, w.lb.url+"/session/"+w.ids[s]+"/delta", raw, &buf)
				d0 = time.Since(t0)
			}
			if err == nil && code == http.StatusOK {
				d.apply(t.g)
				ph.record(c, d0)
				if err = w.spools[c].put(i, raw); err == nil {
					err = w.spools[c].put(i, buf.Bytes())
				}
			} else if err == nil {
				err = fmt.Errorf("status %d: %.200s", code, buf.Bytes())
			}
			t.next++
			t.cond.Broadcast()
			t.mu.Unlock()
			if err != nil {
				failed.Add(1)
				firstErr.Do(func() { fmt.Printf("first failed op: %d: %v\n", i, err) })
			}
		}
	})
	ph.stop()
	ph.attempted, ph.failed = rs.attempted(), int(failed.Load())
	st := w.srv.StatsSnapshot()
	line := fmt.Sprintf("server: %d deltas, %d replayed tasks, %d sessions", st.SessionDeltas, st.SessionReplayedTasks, st.SessionsOpen)
	if st.Journal != nil {
		line += fmt.Sprintf(", journal %d appends / %d bytes / %d compactions", st.Journal.Appends, st.Journal.AppendedBytes, st.Journal.Compactions)
	}
	ph.extra = append(ph.extra, line)
	return ph, nil
}

// record is one spooled delta: the request and its reply.
type record struct {
	op           int
	delta, reply []byte
}

// next returns the next (delta, reply) pair of a session spool, or nil at
// the end.
func (r *spoolReader) next() (*record, error) {
	op, delta, err := r.one()
	if err == io.EOF {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	_, reply, err := r.one()
	if err != nil {
		return nil, err
	}
	return &record{op: op, delta: delta, reply: reply}, nil
}

// check walks both clients' spools merged in operation order, which is
// each session's step order: every delta is applied to the benchmark's
// own copy of the session graph and the reply is checked against it. A
// seeded sample of states is also scheduled cold through POST /schedule
// and must give the same schedule as the session's incremental reply.
func (w *sessionDeltas) check() error {
	var rs [clients]*spoolReader
	var heads [clients]*record
	for c, sp := range w.spools {
		r, err := sp.reader()
		if err != nil {
			return err
		}
		rs[c] = r
		if heads[c], err = r.next(); err != nil {
			return err
		}
		defer sp.close()
	}
	graphs := make([]*check.Graph, numSessions)
	for s := range graphs {
		graphs[s] = cloneGraph(w.graphs[s])
	}
	sample := rand.New(rand.NewSource(w.e.seed ^ 0xc01d))
	pl, err := w.ins[0].platform()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	cold := 0
	for {
		c := -1
		for k := range heads {
			if heads[k] != nil && (c < 0 || heads[k].op < heads[c].op) {
				c = k
			}
		}
		if c < 0 {
			break
		}
		rec := heads[c]
		var err error
		if heads[c], err = rs[c].next(); err != nil {
			return err
		}
		s := rec.op % numSessions
		var d sessionDelta
		if err := json.Unmarshal(rec.delta, &d); err != nil {
			return err
		}
		d.apply(graphs[s])
		r, err := check.ParseResponse(rec.reply)
		if err == nil {
			err = check.Reply(graphs[s], pl, "oneport", r)
		}
		if err != nil {
			return fmt.Errorf("op %d (session %d): %w", rec.op, s, err)
		}
		if sample.Intn(32) != 0 && cold > 0 {
			continue
		}
		in := &instance{heuristic: w.ins[s].heuristic, model: "oneport", graphJSON: encodeGraph(graphs[s]), cycles: paperCycles}
		code, _, err := post(w.cl, w.lb.url+"/schedule", in.body("", nil), &buf)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("cold /schedule of op %d: status %d: %v", rec.op, code, err)
		}
		cr, err := check.ParseResponse(buf.Bytes())
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(cr.Schedule, r.Schedule) {
			return fmt.Errorf("op %d (session %d): incremental schedule differs from a cold /schedule of the same graph", rec.op, s)
		}
		cold++
	}
	fmt.Printf("session checks: %d incremental replies compared with cold /schedule\n", cold)
	return nil
}

func (w *sessionDeltas) layers(tr *tracer) (map[string]metric, error) {
	ins := make([]*instance, numSessions)
	for s, in := range w.ins {
		cp := *in
		cp.cg = w.graphs[s]
		cp.graphJSON, cp.labelAt = encodeGraph(w.graphs[s]), 0
		ins[s] = &cp
	}
	return layerReplay(tr, w.e, ins)
}
