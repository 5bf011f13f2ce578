package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// phase is one timed phase: the operations it attempted, the latency of
// each completed one (per client, in ms), and process counters read at
// its start and end.
type phase struct {
	attempted, failed int
	lat               [clients][]float64
	done              [clients][]time.Duration // completion times since start
	wall              time.Duration

	// ticks are the process CPU time at every whole second of the phase,
	// read by a sampler goroutine
	ticks      []time.Duration
	stopTicker chan struct{}
	tickerDone chan struct{}

	start          time.Time
	cpu0, cpu1     time.Duration
	alloc0, alloc1 uint64
	maxRSS         int64    // peak resident set in KB at the end of the phase
	extra          []string // lines report prints (workload details)
}

// startPhase reads the process counters and starts the clock.
func startPhase() *phase {
	p := &phase{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc0 = ms.TotalAlloc
	p.cpu0 = cpuTime()
	p.stopTicker, p.tickerDone = make(chan struct{}), make(chan struct{})
	p.start = time.Now()
	p.ticks = append(p.ticks, p.cpu0)
	go p.sample()
	return p
}

// sample reads the process CPU time once a second until stop.
func (p *phase) sample() {
	defer close(p.tickerDone)
	t := time.NewTicker(window)
	defer t.Stop()
	for {
		select {
		case <-p.stopTicker:
			return
		case <-t.C:
			p.ticks = append(p.ticks, cpuTime())
		}
	}
}

// window is the length of the slices the rate metrics take medians over.
const window = time.Second

// stop ends the clock and reads the counters again.
func (p *phase) stop() {
	p.wall = time.Since(p.start)
	close(p.stopTicker)
	<-p.tickerDone
	p.cpu1 = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc1 = ms.TotalAlloc
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.maxRSS = ru.Maxrss
	}
}

// record adds one completed operation's latency for client c.
func (p *phase) record(c int, d time.Duration) {
	p.lat[c] = append(p.lat[c], float64(d.Nanoseconds())/1e6)
	p.done[c] = append(p.done[c], time.Since(p.start))
}

// recordSpan adds one completed operation that ran from start to end.
func (p *phase) recordSpan(c int, start, end time.Time) {
	p.lat[c] = append(p.lat[c], float64(end.Sub(start).Nanoseconds())/1e6)
	p.done[c] = append(p.done[c], end.Sub(p.start))
}

// windowed returns, for every whole second of the phase, the rate of
// operations and the CPU milliseconds per operation. A completed
// operation counts in each second by the share of its run time that fell
// into it, so a rate is not rounded to whole operations.
func (p *phase) windowed() (rates, cpuPerOp []float64) {
	full := len(p.ticks) - 1
	if full < 1 {
		return nil, nil
	}
	ops := make([]float64, full)
	for c := range p.done {
		for i, end := range p.done[c] {
			dur := time.Duration(p.lat[c][i] * 1e6)
			start := end - dur
			for k := int(start / window); k <= int(end/window) && k < full; k++ {
				lo, hi := max(start, time.Duration(k)*window), min(end, time.Duration(k+1)*window)
				if dur <= 0 {
					ops[k]++
				} else if hi > lo {
					ops[k] += float64(hi-lo) / float64(dur)
				}
			}
		}
	}
	for k, n := range ops {
		rates = append(rates, n/window.Seconds())
		if n > 0 {
			cpuPerOp = append(cpuPerOp, float64((p.ticks[k+1]-p.ticks[k]).Nanoseconds())/1e6/n)
		}
	}
	return rates, cpuPerOp
}

func (p *phase) samples() []float64 {
	var all []float64
	for c := range p.lat {
		all = append(all, p.lat[c]...)
	}
	sort.Float64s(all)
	return all
}

// metrics derives the end-to-end metrics and checks the benchmark's own
// arithmetic: completed + failed = attempted, and p50 ≤ p99 over the same
// samples.
func (p *phase) metrics(setup float64) (map[string]metric, error) {
	all := p.samples()
	completed := len(all)
	if completed+p.failed != p.attempted {
		return nil, fmt.Errorf("arithmetic: %d completed + %d failed != %d attempted", completed, p.failed, p.attempted)
	}
	if completed == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	p50, p99 := quantile(all, 0.50), quantile(all, 0.99)
	if p50 > p99 {
		return nil, fmt.Errorf("arithmetic: p50 %g ms above p99 %g ms over the same %d samples", p50, p99, completed)
	}
	n := float64(completed)
	rates, cpuPerOp := p.windowed()
	if len(rates) < 3 || len(cpuPerOp) < 3 {
		return nil, fmt.Errorf("the timed phase lasted %s, too short for per-second medians", p.wall)
	}
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"throughput_per_s": {median(rates), "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p99_ms":   {p99, "ms"},
		"cpu_ms_per_op":    {median(cpuPerOp), "ms"},
		"alloc_kb_per_op":  {float64(p.alloc1-p.alloc0) / 1024 / n, "KB"},
		"rss_peak_mb":      {float64(p.maxRSS) / 1024, "MB"},
	}, nil
}

// report prints the sample count beside each percentile and the
// workload's own detail lines.
func (p *phase) report() {
	all := p.samples()
	fmt.Printf("timed phase: %.3f s, %d attempted, %d failed\n", p.wall.Seconds(), p.attempted, p.failed)
	rates, cpuPerOp := p.windowed()
	fmt.Printf("whole phase: %.4f ops/s, %.4f cpu ms/op; per-second medians %.4f ops/s, %.4f cpu ms/op over %d seconds\n",
		float64(len(all))/p.wall.Seconds(), float64((p.cpu1-p.cpu0).Nanoseconds())/1e6/float64(len(all)),
		median(rates), median(cpuPerOp), len(rates))
	fmt.Printf("latency_p50_ms %.4f (n=%d)\n", quantile(all, 0.50), len(all))
	fmt.Printf("latency_p99_ms %.4f (n=%d, %d samples above)\n", quantile(all, 0.99), len(all), len(all)-int(math.Ceil(0.99*float64(len(all)))))
	for _, l := range p.extra {
		fmt.Println(l)
	}
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user + system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rounds hands out operation indexes to the clients until the deadline,
// then only up to the end of the round in progress, so every run attempts
// whole rounds of the same operations.
type rounds struct {
	mu       sync.Mutex
	size     int
	next     int
	stopAt   int
	deadline time.Time
}

func newRounds(size int, seconds float64) *rounds {
	return &rounds{size: size, stopAt: -1, deadline: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

// take returns the next operation index, or false once the last round is
// handed out.
func (r *rounds) take() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopAt < 0 && !time.Now().Before(r.deadline) {
		r.stopAt = (r.next + r.size - 1) / r.size * r.size
		if r.stopAt == 0 {
			r.stopAt = r.size
		}
	}
	if r.stopAt >= 0 && r.next >= r.stopAt {
		return 0, false
	}
	i := r.next
	r.next++
	return i, true
}

// attempted is the number of indexes handed out (whole rounds).
func (r *rounds) attempted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// runClients runs fn on each client until it returns false, and waits.
func runClients(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// loopback is an HTTP server on a loopback port.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return l, nil
}

// close shuts the server down and waits until Serve has returned.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients * 2,
		DisableCompression:  true,
	}}
}

// post sends body and reads the whole reply into buf.
func post(cl *http.Client, url string, body []byte, buf *bytes.Buffer) (int, http.Header, error) {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// spool keeps the replies of a timed phase on disk, so the checks run
// after the clock stops without holding every reply in memory. Each
// record is a 4-byte op index, a 4-byte length and the bytes.
type spool struct {
	f *os.File
	w *bufio.Writer
}

func newSpool(path string) (*spool, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spool{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *spool) put(op int, b []byte) error {
	var hdr [8]byte
	putU32(hdr[:4], uint32(op))
	putU32(hdr[4:], uint32(len(b)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := s.w.Write(b)
	return err
}

// spoolReader reads a spool's records back in write order.
type spoolReader struct {
	r *bufio.Reader
}

// reader flushes the spool and starts reading it from the beginning.
func (s *spool) reader() (*spoolReader, error) {
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return &spoolReader{r: bufio.NewReaderSize(s.f, 1<<20)}, nil
}

// one returns the next record; io.EOF after the last.
func (r *spoolReader) one() (int, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	b := make([]byte, getU32(hdr[4:]))
	_, err := io.ReadFull(r.r, b)
	return int(getU32(hdr[:4])), b, err
}

// each calls fn for every record in write order.
func (s *spool) each(fn func(op int, b []byte) error) error {
	r, err := s.reader()
	if err != nil {
		return err
	}
	for {
		op, b, err := r.one()
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := fn(op, b); err != nil {
			return err
		}
	}
}

func (s *spool) close() { s.f.Close() }

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
