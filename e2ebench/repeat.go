package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatMode runs every workload n times, interleaved by workload (run k
// of each workload, then run k+1), each run a child process on seed
// seed+k, and prints every run's result with the machine's steal share
// over it, then per workload and metric the median, the quartiles and the
// spread (q3−q1)/median against the metric's bound.
func repeatMode(n int, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string]map[string][]float64{}
	failShare := map[string][]float64{}
	for k := 0; k < n; k++ {
		for _, wl := range workloads {
			w, s := wl.name, seed+int64(k)
			t0, ok0 := readTicks()
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			t1, ok1 := readTicks()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, s, err)
			}
			steal := "n/a"
			if ok0 && ok1 {
				steal = fmt.Sprintf("%.4f", t1.stealSince(t0))
			}
			fmt.Printf("run %d %-15s seed %-4d steal %s correct %v attempted %d failed %d %s\n",
				k, w, s, steal, res.Correct, res.Attempted, res.Failed, compact(res.Metrics))
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			failShare[w] = append(failShare[w], float64(res.Failed)/float64(res.Attempted))
		}
	}
	fmt.Printf("\n%-15s %-17s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, wl := range workloads {
		w := wl.name
		names := make([]string, 0, len(values[w]))
		for name := range values[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[w][name]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / med
			verdict := ""
			if b, ok := bounds[name]; ok {
				verdict = fmt.Sprintf("%6.3f", b)
				if name != "setup_s" && spread > b/3 {
					verdict += "  above a third of the bound"
				}
			}
			fmt.Printf("%-15s %-17s %12.5g %12.5g %12.5g %8.4f %s\n", w, name, med, q1, q3, spread, verdict)
		}
		fmt.Printf("%-15s %-17s %v\n", w, "failed share", failShare[w])
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (float64, float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func compact(ms map[string]metric) string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%.4g ", n, ms[n].Value)
	}
	return b.String()
}

// cpuTicks is the machine-wide "cpu" line of /proc/stat: total ticks and
// the ticks stolen by the hypervisor.
type cpuTicks struct{ total, steal uint64 }

func readTicks() (cpuTicks, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTicks{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, s := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

func (t cpuTicks) stealSince(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}
