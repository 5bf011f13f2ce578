package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"oneport/e2ebench/check"
	"oneport/internal/service"
	"oneport/internal/service/admit"
)

// scheduleWL drives POST /schedule. schedule-cold tags every round's 32
// requests with the round number, so every request misses the cache;
// schedule-repeat sends a fixed 32-body set after one untimed cold pass,
// so every request is a cache hit.
type scheduleWL struct {
	e      *env
	repeat bool
	set    []*instance

	srv *service.Server
	lb  *loopback
	cl  *http.Client

	spools  [clients]*spool // cold: every reply, checked after the clock stops
	bodies  [][]byte        // repeat: the fixed request bodies
	expect  [][]byte        // repeat: the reply each body must get on a hit
	wrong   atomic.Int64    // repeat: hits whose bytes differ from expect
	coldErr error           // repeat: first failure of the untimed passes
	streams int             // repeat: bodies answered with a streamed reply
	sizes   []string        // repeat: large replies, real size against the estimate
}

func newSchedule(e *env, repeat bool) workload { return &scheduleWL{e: e, repeat: repeat} }

func (w *scheduleWL) prepare() (err error) {
	if w.repeat {
		w.set, err = repeatSet(w.e.seed)
	} else {
		w.set, err = coldMix(w.e.seed)
	}
	return err
}

// newServer is the server schedserve -admission builds: default cache,
// pool and admission settings.
func newServer() *service.Server {
	return service.New(service.Config{Admission: &admit.Config{}})
}

// setup starts a server on loopback and warms it with every body of the
// set under a tag no timed request uses.
func (w *scheduleWL) setup() (func(), error) {
	w.srv = newServer()
	lb, err := serve(w.srv.Handler())
	if err != nil {
		return nil, err
	}
	w.lb, w.cl = lb, newClient()
	stop := func() { w.lb.close(); w.cl.CloseIdleConnections() }
	var buf bytes.Buffer
	for _, in := range w.set {
		if code, _, err := post(w.cl, w.lb.url+"/schedule", in.body(warmTag, nil), &buf); err != nil || code != http.StatusOK {
			stop()
			return nil, fmt.Errorf("warm-up request answered %d: %v %.200s", code, err, buf.Bytes())
		}
	}
	return stop, nil
}

func (w *scheduleWL) measure(seconds float64) (*phase, error) {
	if w.repeat {
		if err := w.primeRepeat(); err != nil {
			return nil, err
		}
	} else {
		for c := range w.spools {
			sp, err := newSpool(filepath.Join(w.e.dir, fmt.Sprintf("spool-%d", c)))
			if err != nil {
				return nil, err
			}
			w.spools[c] = sp
		}
	}
	var failed atomic.Int64
	var firstErr sync.Once
	fail := func(err error) {
		failed.Add(1)
		firstErr.Do(func() { fmt.Printf("first failed op: %v\n", err) })
	}
	url := w.lb.url + "/schedule"
	n := len(w.set)
	rs := newRounds(n, seconds)
	ph := startPhase()
	runClients(func(c int) {
		var body []byte
		var buf bytes.Buffer
		for {
			i, ok := rs.take()
			if !ok {
				return
			}
			slot := i % n
			if w.repeat {
				body = w.bodies[slot]
			} else {
				body = w.set[slot].body(roundTag(i/n), body[:0])
			}
			t0 := time.Now()
			code, _, err := post(w.cl, url, body, &buf)
			d := time.Since(t0)
			if err != nil || code != http.StatusOK {
				fail(fmt.Errorf("op %d: status %d: %v %.200s", i, code, err, buf.Bytes()))
				continue
			}
			ph.record(c, d)
			if w.repeat {
				if !bytes.Equal(buf.Bytes(), w.expect[slot]) {
					w.wrong.Add(1)
				}
			} else if err := w.spools[c].put(i, buf.Bytes()); err != nil {
				fail(err)
			}
		}
	})
	ph.stop()
	ph.attempted, ph.failed = rs.attempted(), int(failed.Load())
	st := w.srv.StatsSnapshot()
	ph.extra = append(ph.extra, fmt.Sprintf("server: %d requests, %d cache hits (%d byte-index), %d misses, %d shed",
		st.Requests, st.CacheHits, st.CacheBodyHits, st.CacheMisses, st.Shed))
	if w.repeat {
		ph.extra = append(ph.extra, fmt.Sprintf("repeat set: %d bodies, %d answered by a streamed reply", n, w.streams))
		ph.extra = append(ph.extra, w.sizes...)
	}
	return ph, nil
}

// primeRepeat is schedule-repeat's untimed part: a cold pass whose replies
// are checked, then a first repeat pass whose replies must carry the same
// schedules and become the bytes every timed hit must match.
func (w *scheduleWL) primeRepeat() error {
	url := w.lb.url + "/schedule"
	w.bodies = make([][]byte, len(w.set))
	w.expect = make([][]byte, len(w.set))
	cold := make([]*check.Schedule, len(w.set))
	var buf bytes.Buffer
	for i, in := range w.set {
		w.bodies[i] = in.body("", nil)
		code, hdr, err := post(w.cl, url, w.bodies[i], &buf)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("cold pass: status %d: %v", code, err)
		}
		streamed := hdr.Get("X-Sched-Stream") != ""
		if streamed {
			w.streams++
		}
		r, err := checkReply(in, buf.Bytes())
		if err != nil {
			w.coldErr = fmt.Errorf("cold pass body %d: %w", i, err)
			return nil
		}
		// the server decides to stream from an estimate of the encoded
		// size (service.Response.estimateBytes); set it beside the real one
		if est := 512 + 96*r.Tasks + 160*r.Comms; est > 1<<19 {
			w.sizes = append(w.sizes, fmt.Sprintf("body %d: %s-%d %s: reply %d bytes, estimate %d (%.2fx), streamed %v",
				i, in.testbed, in.size, in.heuristic, buf.Len(), est, float64(est)/float64(buf.Len()), streamed))
		}
		cold[i] = r.Schedule
	}
	for i := range w.set {
		code, _, err := post(w.cl, url, w.bodies[i], &buf)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("first repeat: status %d: %v", code, err)
		}
		r, err := check.ParseResponse(buf.Bytes())
		switch {
		case err != nil:
			w.coldErr = err
		case !r.Cached:
			w.coldErr = fmt.Errorf("repeat of body %d was not a cache hit", i)
		case !reflect.DeepEqual(r.Schedule, cold[i]):
			w.coldErr = fmt.Errorf("repeat of body %d carries another schedule than its cold answer", i)
		}
		w.expect[i] = bytes.Clone(buf.Bytes())
	}
	return nil
}

// checkReply runs the checker on one reply to instance in.
func checkReply(in *instance, reply []byte) (*check.Response, error) {
	r, err := check.ParseResponse(reply)
	if err != nil {
		return nil, err
	}
	pl, err := in.platform()
	if err != nil {
		return nil, err
	}
	return r, check.Reply(in.cg, pl, in.model, r)
}

func (w *scheduleWL) check() error {
	if w.repeat {
		if w.coldErr != nil {
			return w.coldErr
		}
		if n := w.wrong.Load(); n > 0 {
			return fmt.Errorf("%d cache hits differ from the first repeat's bytes", n)
		}
		return nil
	}
	n := len(w.set)
	var errs [clients]error
	runClients(func(c int) {
		sp := w.spools[c]
		defer sp.close()
		errs[c] = sp.each(func(op int, b []byte) error {
			r, err := checkReply(w.set[op%n], b)
			if err == nil && r.Cached {
				err = errors.New("a cold request was answered from the cache")
			}
			if err != nil {
				return fmt.Errorf("client %d op %d: %w", c, op, err)
			}
			return nil
		})
	})
	return errors.Join(errs[:]...)
}

func (w *scheduleWL) layers(tr *tracer) (map[string]metric, error) {
	return layerReplay(tr, w.e, w.set)
}
