// Command e2ebench is the end-to-end benchmark of the scheduling stack: it
// runs one workload in this process against the real program (a loopback
// HTTP server and at most two closed-loop clients), checks every output
// with a checker written apart from the program, and prints its metrics.
//
//	e2ebench --workload schedule-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of a timed run; with
// --trace 1 it replays the workload's own inputs through each layer's
// public functions and prints per-layer metrics, writing the spans as a
// Chrome trace. The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
//
// --repeat N runs every workload N times, interleaved by workload, each
// run a child process on a new seed, and prints per-metric medians,
// quartiles and spreads against the bounds in BENCHMARK.json. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark scenario. prepare builds the inputs (and any
// untimed history) once; setup starts the components on them and warms
// them, returning the function that stops them; measure runs the timed
// phase on the last set-up; check verifies every output measure kept;
// layers is the traced replay of the workload's inputs.
type workload interface {
	prepare() error
	setup() (stop func(), err error)
	measure(seconds float64) (*phase, error)
	check() error
	layers(tr *tracer) (map[string]metric, error)
}

// workloads in the order --repeat interleaves them.
var workloads = []struct {
	name string
	mk   func(*env) workload
}{
	{"figure-sweep", newFigureSweep},
	{"schedule-cold", func(e *env) workload { return newSchedule(e, false) }},
	{"schedule-repeat", func(e *env) workload { return newSchedule(e, true) }},
	{"session-deltas", newSessionDeltas},
}

// env is what every workload shares: its seed and a scratch directory
// inside the checkout that is removed when the run ends.
type env struct {
	seed int64
	dir  string
}

// setupRepeats is how often set-up runs; setup_s is the median.
const setupRepeats = 3

// clients is the number of concurrent closed-loop clients (the box has 2
// CPUs).
const clients = 2

func main() {
	name := flag.String("workload", "", "workload: figure-sweep, schedule-cold, schedule-repeat or session-deltas")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced per-layer replay instead of the timed run")
	repeat := flag.Int("repeat", 0, "run every workload this many times (child processes, seeds seed..seed+N-1) and print spreads")
	flag.Parse()
	if *repeat > 0 {
		if err := repeatMode(*repeat, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	var mk func(*env) workload
	for _, w := range workloads {
		if w.name == *name {
			mk = w.mk
		}
	}
	if mk == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(*name, mk, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// run executes one workload and returns its result line. An error means the
// run itself broke (a component failed to start, or the benchmark's own
// arithmetic does not hold); failed operations and failed checks are
// reported in the result instead.
func run(name string, mk func(*env) workload, seed int64, seconds float64, traced bool) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, dir: dir}
	w := mk(e)
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	var stop func()
	setups := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		if stop != nil {
			stop()
		}
		runtime.GC()
		t0 := time.Now()
		stop, err = w.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer stop()

	if traced {
		tr := newTracer()
		ms, err := w.layers(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", name, err)
		}
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
		return &result{Correct: true, Attempted: tr.ops, Failed: 0, Metrics: ms}, nil
	}

	runtime.GC()
	ph, err := w.measure(seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: measure: %w", name, err)
	}
	correct := true
	if err := w.check(); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: check failed: %v\n", name, err)
		correct = false
	}
	ms, err := ph.metrics(median(setups))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("setup_s runs: %v\n", setups)
	ph.report()
	return &result{Correct: correct, Attempted: ph.attempted, Failed: ph.failed, Metrics: ms}, nil
}

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"
