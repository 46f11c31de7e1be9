package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rmmap/internal/bench"
	"rmmap/internal/objrt"
	"rmmap/internal/obs"
	"rmmap/internal/platform"
)

func smokeConfig(dir string) config {
	return config{
		workload: "WordCount", mode: "rmmap-prefetch",
		scale: 0.02, requests: 1, machines: 4, pods: 8,
		metricsPath: filepath.Join(dir, "metrics.json"),
		chromePath:  filepath.Join(dir, "trace.json"),
		jsonlPath:   filepath.Join(dir, "spans.jsonl"),
		profilePath: filepath.Join(dir, "profile.folded"),
	}
}

func TestSmokeArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig(dir)
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	// Chrome trace parses and has events.
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	mustUnmarshalFile(t, cfg.chromePath, &trace)
	if len(trace.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
	// Metrics snapshot parses and carries canonical names.
	var metrics struct {
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
	}
	mustUnmarshalFile(t, cfg.metricsPath, &metrics)
	if len(metrics.Counters) == 0 {
		t.Error("metrics snapshot has no counters")
	}
	// Profile is nonempty folded lines "stack weight".
	prof, err := os.ReadFile(cfg.profilePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(prof)), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], " ") {
		t.Errorf("profile not folded stacks:\n%s", prof)
	}
	// JSONL: every line parses.
	jsonl, err := os.ReadFile(cfg.jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(jsonl)), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("jsonl line %d: %v", i, err)
		}
	}
}

func TestSmokeDeterministic(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	var out bytes.Buffer
	if err := run(smokeConfig(a), &out); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeConfig(b), &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "trace.json", "spans.jsonl", "profile.folded"} {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two identical runs", name)
		}
	}
}

func openLoopConfig(dir string) config {
	return config{
		workload: "ML-prediction", mode: "rmmap-prefetch", scale: 0.05,
		openRate: 200, duration: 300 * time.Millisecond, machines: 10, pods: 80,
		metricsPath: filepath.Join(dir, "metrics.json"),
	}
}

// TestOpenLoopDeterministic: the -openloop path prints the same report
// and writes a byte-identical metrics snapshot on every run.
func TestOpenLoopDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	var snaps [2][]byte
	for i := range outs {
		cfg := openLoopConfig(t.TempDir())
		if err := run(cfg, &outs[i]); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, outs[i].String())
		}
		var err error
		if snaps[i], err = os.ReadFile(cfg.metricsPath); err != nil {
			t.Fatal(err)
		}
		// The report names the metrics file, which differs per run.
		outs[i] = *bytes.NewBufferString(strings.ReplaceAll(outs[i].String(), cfg.metricsPath, "metrics.json"))
	}
	for _, want := range []string{"open loop: 60 requests at 200.0 req/s", "latency p50="} {
		if !strings.Contains(outs[0].String(), want) {
			t.Errorf("open-loop report missing %q:\n%s", want, outs[0].String())
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Errorf("open-loop report differs between two identical runs:\n%s\nvs\n%s", outs[0].String(), outs[1].String())
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("open-loop metrics snapshot differs between two identical runs")
	}
}

// TestOpenLoopFailureStillWritesMetrics: when some open-loop requests
// fail, the completed ones' metrics are still written and the run reports
// the failure (main turns it into a non-zero exit).
func TestOpenLoopFailureStillWritesMetrics(t *testing.T) {
	flaky := bench.WorkflowBuilder{Name: "Flaky", Build: func() *platform.Workflow {
		return &platform.Workflow{Name: "Flaky", Functions: []*platform.FunctionSpec{{
			Name: "f", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				if ctx.RequestID%2 == 0 {
					return objrt.Obj{}, errors.New("injected failure")
				}
				ctx.Report(int64(ctx.RequestID))
				return objrt.Obj{}, nil
			},
		}}}
	}}
	cfg := openLoopConfig(t.TempDir())
	var out bytes.Buffer
	err := runWorkload(cfg, flaky, &out)
	if err == nil || !strings.Contains(err.Error(), "30 of 60 requests failed") {
		t.Fatalf("err = %v, want 30 of 60 requests failed\n%s", err, out.String())
	}
	var metrics struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  int64             `json:"value"`
		} `json:"counters"`
	}
	mustUnmarshalFile(t, cfg.metricsPath, &metrics)
	runs := map[string]int64{}
	for _, c := range metrics.Counters {
		if c.Name == obs.MetricRuns {
			runs[c.Labels["outcome"]] += c.Value
		}
	}
	if runs["ok"] != 30 || runs["error"] != 30 {
		t.Fatalf("snapshot counts runs %v, want 30 ok and 30 error", runs)
	}
	if !strings.Contains(out.String(), "wrote "+cfg.metricsPath) {
		t.Errorf("report does not name the written snapshot:\n%s", out.String())
	}
}

func TestListAndBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(config{list: true}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WordCount", "rmmap(prefetch)", "messaging"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
	if err := run(config{workload: "nope", mode: "rmmap", scale: 1}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(config{workload: "FINRA", mode: "nope", scale: 1}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(config{workload: "FINRA", mode: "rmmap", scale: 7}, &out); err == nil {
		t.Error("out-of-range scale accepted")
	}
}

func mustUnmarshalFile(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
