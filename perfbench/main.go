// Command perfbench is the repository benchmark. It runs one workload of
// the RMMAP simulator for a fixed host-time budget, checks every request's
// output against the messaging-mode oracle, and prints end-to-end metrics
// on two clocks: host (how fast the simulator runs) and virtual (what the
// model says the platform would take). With -trace 1 it instead runs one
// untraced and one traced pass, checks that tracing changed no virtual
// result, and prints per-layer metrics.
//
//	bash perfbench/run.sh --workload fig14-serde --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"rmmap/internal/simtime"
)

// metric is one printed figure. clock is "host", "virtual" or "count".
type metric struct {
	name  string
	value float64
	unit  string
	clock string
}

// textOnly figures can read 0, which a relative bound cannot gate, so the
// result line leaves them out; its attempted/failed fields and
// sim_served_ratio carry the same facts.
var textOnly = map[string]bool{"failed_ratio": true, "sim_shed_ratio": true, "load.generator_lateness_ms": true}

type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

func main() {
	workload := flag.String("workload", "", "fig14-serde, fig14-rmmap or soak-burst")
	seed := flag.Uint64("seed", 1, "input seed: feeds workloads.*Config.Seed and load.BurstSpec.Seed")
	seconds := flag.Int("seconds", 30, "host-time budget of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of everything after the oracle to this file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	spans := fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *workload, *seed)
	rep, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spans, *cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// newWorkload builds the named workload.
func newWorkload(name string, seed uint64) (runner, error) {
	switch name {
	case "fig14-serde":
		return &fig14{wfs: seededWorkflows(serdeScale, seed), modes: serdeModes}, nil
	case "fig14-rmmap":
		return &fig14{wfs: seededWorkflows(rmmapScale, seed), modes: rmmapModes}, nil
	case "soak-burst":
		return newSoak(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig14-serde, fig14-rmmap or soak-burst)", name)
}

func run(name string, seed uint64, budget time.Duration, traced bool, spansPath, cpuProfile string) (*report, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	var capture *capturer
	if traced {
		capture = newCapturer()
	}
	if err := w.setOracle(capture.wrap()); err != nil {
		return nil, err
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	if traced {
		return tracedRun(w, capture, spansPath)
	}
	return timedRun(w, budget)
}

// setupsPerPass is how many set-up samples are taken before each pass,
// setupsPerSample how many complete set-ups one sample times back to back
// (one set-up takes a few milliseconds, too short to time steadily alone),
// and minPasses the fewest timed passes host metrics are the median of.
const (
	setupsPerPass   = 11
	setupsPerSample = 16
	minPasses       = 3
)

// timedRun repeats untraced passes, each after setupsPerPass set-up
// samples, until the budget is spent (at least three passes). It reports
// the median sample's time per set-up and medians over passes for the
// other host metrics.
// Virtual metrics come from the first pass; every pass must reproduce its
// digest.
func timedRun(w runner, budget time.Duration) (*report, error) {
	rep := &report{correct: true}
	var setup []float64
	var passes []passResult
	start := time.Now()
	for {
		// Stop once another pass of average length would overrun the budget.
		elapsed := time.Since(start)
		if len(passes) >= minPasses && elapsed+elapsed/time.Duration(len(passes)) > budget {
			break
		}
		// Set-ups are spread over the run, like the passes, so setup_s
		// samples the host's state as long as host_s does. A collected
		// heap per sample keeps collector work for earlier garbage out of
		// the timing.
		for i := 0; i < setupsPerPass; i++ {
			runtime.GC()
			var sample time.Duration
			for j := 0; j < setupsPerSample; j++ {
				d, err := w.setup()
				if err != nil {
					return nil, err
				}
				sample += d
			}
			setup = append(setup, sample.Seconds()/setupsPerSample)
		}
		runtime.GC()
		pr, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
	}
	first := digest(passes[0])
	var host, alloc []float64
	for i, pr := range passes {
		if d := digest(pr); d != first {
			rep.correct = false
			rep.notes = append(rep.notes, fmt.Sprintf("pass %d virtual digest %s differs from pass 0 %s", i, d, first))
		}
		host = append(host, pr.host.Seconds())
		alloc = append(alloc, float64(pr.allocBytes)/(1<<20))
		rep.tally(pr)
	}
	rep.correct = rep.correct && rep.failed == 0
	rep.notes = append(rep.notes, fmt.Sprintf("passes %d, virtual digest %s", len(passes), first))
	rep.metrics = append(rep.metrics,
		metric{"setup_s", median(setup), "s", "host"},
		metric{"host_s", median(host), "s", "host"},
		metric{"host_alloc_mb", median(alloc), "MB", "host"},
		metric{"host_peak_rss_mb", peakRSSMB(), "MB", "host"},
		metric{"failed_ratio", float64(rep.failed) / float64(rep.attempted), "ratio", "count"},
	)
	vm, notes := virtualMetrics(passes[0])
	rep.metrics = append(rep.metrics, vm...)
	rep.notes = append(rep.notes, notes...)
	return rep, nil
}

// virtualMetrics are the model's end-to-end outputs for one pass. A
// fig14 grid is a closed loop of one, so its goodput window is the sum of
// cell latencies; the soak's window is the offered horizon. Percentiles
// are over completed requests; a shed counts only as missing its deadline.
func virtualMetrics(pr passResult) ([]metric, []string) {
	var lat []float64
	logSum, inTime, shed := 0.0, 0, 0
	var window simtime.Duration
	for _, r := range pr.reqs {
		if r.shed != "" {
			shed++
			continue
		}
		if r.inTime {
			inTime++
		}
		if r.wrong {
			continue
		}
		ms := float64(r.latency) / float64(simtime.Millisecond)
		lat = append(lat, ms)
		logSum += math.Log(ms)
		window += r.latency
	}
	if pr.horizon > 0 {
		window = pr.horizon
	}
	n := len(pr.reqs)
	sort.Float64s(lat)
	geo := 0.0
	if len(lat) > 0 {
		geo = math.Exp(logSum / float64(len(lat)))
	}
	beyond := len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	ms := []metric{
		{"sim_latency_geomean_ms", geo, "ms", "virtual"},
		{"sim_p50_ms", percentile(lat, 0.50), "ms", "virtual"},
		{"sim_p99_ms", percentile(lat, 0.99), "ms", "virtual"},
		{"sim_goodput_rps", float64(inTime) / window.Seconds(), "1/s", "virtual"},
		{"sim_served_ratio", float64(n-shed) / float64(n), "ratio", "virtual"},
		{"sim_shed_ratio", float64(shed) / float64(n), "ratio", "virtual"},
	}
	if pr.horizon > 0 {
		// The soak's arrivals are scheduled on the simulator clock itself,
		// so the generator is never late in virtual time; this checks it.
		ms = append(ms, metric{"load.generator_lateness_ms",
			float64(pr.lateness) / float64(simtime.Millisecond), "ms", "virtual"})
	}
	notes := []string{
		fmt.Sprintf("latency samples %d (%d beyond p99), offered %d, shed %d, in deadline %d",
			len(lat), beyond, n, shed, inTime),
	}
	return ms, notes
}

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapAllocBytes is the Go heap's cumulative allocation count in bytes.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapAllocObjects is the Go heap's cumulative allocation count in objects.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// tally counts a pass's requests, noting the first few failures.
func (r *report) tally(pr passResult) {
	r.attempted += len(pr.reqs)
	for _, q := range pr.reqs {
		if !q.wrong {
			continue
		}
		if r.failed < 5 {
			r.notes = append(r.notes, fmt.Sprintf("failed %s: %s", q.label, q.errString))
		}
		r.failed++
	}
}

// print writes the notes, one "metric" line per figure with its clock, and
// last the JSON result line.
func (r *report) print(dst io.Writer) error {
	w := bufio.NewWriter(dst)
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %-14.6g %-6s %s\n", m.name, m.value, m.unit, m.clock)
		if !textOnly[m.name] {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return w.Flush()
}
