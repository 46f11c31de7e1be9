// Command rmmap-trace runs one registered workload under one transfer mode
// and emits observability artifacts: a canonical metrics snapshot, a Chrome
// trace-event JSON (load it in chrome://tracing or https://ui.perfetto.dev),
// a flat JSONL span dump, and a folded virtual-time profile (flamegraph.pl
// / speedscope input).
//
// Usage:
//
//	rmmap-trace -list
//	rmmap-trace -workload FINRA -mode "rmmap(prefetch)" [-scale 0.25] \
//	    [-requests 3] [-topology spine-leaf] [-metrics metrics.json] \
//	    [-chrome-trace trace.json] [-jsonl spans.jsonl] \
//	    [-profile profile.folded]
//	rmmap-trace -workload ML-prediction -openloop 200 -duration 500ms \
//	    -metrics metrics.json
//
// -topology runs the workload on a multi-rack cluster shape (a
// platformbuilder recipe name or topology JSON file — see PLATFORMS.md);
// spans then carry "tor", "spine", and "linkwait" categories in their
// breakdowns, so the Chrome trace shows where hop latency and link
// queueing land.
//
// Modes accept the report names (messaging, storage(pocket), storage(rdma),
// rmmap, rmmap(prefetch)) and flag-friendly aliases (storage-pocket,
// storage-rdma, rmmap-prefetch). Runs are deterministic: the same workload,
// mode, and scale produce byte-identical artifacts on every rerun.
//
// With -openloop R requests are submitted at R req/s of virtual time for
// -duration; metrics then include the latency percentile histogram, but no
// span artifacts are written (open-loop runs discard per-request traces).
// If some open-loop requests fail, the -metrics snapshot is still written
// for the completed ones before the failure sets the exit status.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rmmap/internal/bench"
	"rmmap/internal/load"
	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

type config struct {
	workload   string
	mode       string
	scale      float64
	requests   int
	openRate   float64
	duration   time.Duration
	machines   int
	pods       int
	ctrlShards int
	topology   string

	metricsPath string
	chromePath  string
	jsonlPath   string
	profilePath string
	list        bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "FINRA", "registered workload name (see -list)")
	flag.StringVar(&cfg.mode, "mode", "rmmap(prefetch)", "transfer mode (see -list)")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "payload scale factor in (0,1]")
	flag.IntVar(&cfg.requests, "requests", 1, "sequential requests to run and aggregate")
	flag.Float64Var(&cfg.openRate, "openloop", 0, "open-loop request rate (req/s of virtual time); 0 = closed single/sequential runs")
	flag.DurationVar(&cfg.duration, "duration", 2*time.Second, "virtual duration of the open-loop run")
	flag.IntVar(&cfg.machines, "machines", 10, "cluster machines")
	flag.IntVar(&cfg.pods, "pods", 80, "cluster pods")
	flag.IntVar(&cfg.ctrlShards, "ctrl-shards", 0, "consistent-hash coordinator shards (0/1 = single coordinator); artifacts are identical at any setting")
	flag.StringVar(&cfg.topology, "topology", "", "cluster shape: a platformbuilder recipe name or topology JSON file (see PLATFORMS.md); default flat")
	flag.StringVar(&cfg.metricsPath, "metrics", "", "write canonical metrics snapshot JSON here")
	flag.StringVar(&cfg.chromePath, "chrome-trace", "", "write Chrome trace-event JSON here")
	flag.StringVar(&cfg.jsonlPath, "jsonl", "", "write flat span JSONL here")
	flag.StringVar(&cfg.profilePath, "profile", "", "write folded virtual-time profile here")
	flag.BoolVar(&cfg.list, "list", false, "list workloads and modes, then exit")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rmmap-trace: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	if cfg.list {
		fmt.Fprintln(out, "workloads:")
		for _, w := range bench.Workflows(1) {
			fmt.Fprintf(out, "  %s\n", w.Name)
		}
		fmt.Fprintln(out, "modes:")
		for _, m := range platform.AllModes() {
			fmt.Fprintf(out, "  %s\n", m)
		}
		return nil
	}
	if cfg.scale <= 0 || cfg.scale > 1 {
		return fmt.Errorf("scale %v outside (0,1]", cfg.scale)
	}
	builder, err := findWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return err
	}
	return runWorkload(cfg, builder, out)
}

// runWorkload runs one resolved workload and writes the artifacts cfg
// asks for.
func runWorkload(cfg config, builder bench.WorkflowBuilder, out io.Writer) error {
	mode, err := platform.ParseMode(cfg.mode)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	opts := platform.Options{Trace: true, Obs: reg, CtrlShards: cfg.ctrlShards}
	clCfg, _, err := platformbuilder.Resolve(cfg.topology, cfg.machines, cfg.pods)
	if err != nil {
		return fmt.Errorf("-topology: %w (known recipes: %v)", err, platformbuilder.Recipes())
	}
	e, err := platform.NewEngine(builder.Build(), mode, opts, clCfg)
	if err != nil {
		return err
	}

	var spans []platform.Span
	var runErr error
	if cfg.openRate > 0 {
		dur := simtime.Duration(cfg.duration.Nanoseconds())
		res := load.Replay(e, load.Uniform(cfg.openRate, dur), dur)
		fmt.Fprintf(out, "%s / %s open loop: %d requests at %.1f req/s, throughput %.1f req/s\n",
			builder.Name, mode, res.Completed, cfg.openRate, res.Throughput())
		if errs := res.Failed + res.Shed; errs > 0 {
			// The registry already holds the completed requests' metrics;
			// keep going so -metrics still captures them, and surface the
			// failure as the exit status afterwards.
			runErr = fmt.Errorf("open loop: %d of %d requests failed", errs, errs+res.Completed)
		}
		if res.Completed > 0 {
			h := res.LatencyHistogram()
			fmt.Fprintf(out, "latency p50=%v p90=%v p99=%v\n",
				simtime.Duration(h.Quantile(0.50)), simtime.Duration(h.Quantile(0.90)),
				simtime.Duration(h.Quantile(0.99)))
		}
		if cfg.chromePath != "" || cfg.jsonlPath != "" || cfg.profilePath != "" {
			fmt.Fprintln(out, "note: span artifacts are not produced for open-loop runs")
		}
	} else {
		if cfg.requests < 1 {
			cfg.requests = 1
		}
		var last platform.RunResult
		for i := 0; i < cfg.requests; i++ {
			res, err := e.Run()
			if err != nil {
				return fmt.Errorf("request %d: %w", i+1, err)
			}
			spans = append(spans, res.Trace...)
			last = res
		}
		fmt.Fprintf(out, "%s / %s: %d request(s), last latency %v\n",
			builder.Name, mode, cfg.requests, last.Latency)
		for _, entry := range platform.BuildProfile(builder.Name, spans).ByCategory() {
			fmt.Fprintf(out, "  %-12s %v\n", entry.Category, entry.Total)
		}
		if err := writeSpanArtifacts(cfg, builder.Name, spans, out); err != nil {
			return err
		}
	}

	if cfg.metricsPath != "" {
		if err := writeFile(cfg.metricsPath, func(w io.Writer) error {
			return reg.Snapshot().WriteJSON(w)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.metricsPath)
	}
	return runErr
}

func writeSpanArtifacts(cfg config, workflow string, spans []platform.Span, out io.Writer) error {
	if cfg.chromePath != "" {
		if err := writeFile(cfg.chromePath, func(w io.Writer) error {
			return obs.ChromeTrace(w, platform.ExportSpans(spans))
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", cfg.chromePath)
	}
	if cfg.jsonlPath != "" {
		if err := writeFile(cfg.jsonlPath, func(w io.Writer) error {
			return obs.WriteSpansJSONL(w, platform.ExportSpans(spans))
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.jsonlPath)
	}
	if cfg.profilePath != "" {
		if err := writeFile(cfg.profilePath, func(w io.Writer) error {
			return platform.BuildProfile(workflow, spans).WriteFolded(w)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (folded stacks; feed to flamegraph.pl or speedscope)\n", cfg.profilePath)
	}
	return nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

func findWorkload(name string, scale float64) (bench.WorkflowBuilder, error) {
	var names []string
	for _, w := range bench.Workflows(scale) {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return bench.WorkflowBuilder{}, fmt.Errorf("unknown workload %q; known: %s",
		name, strings.Join(names, ", "))
}
