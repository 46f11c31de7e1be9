package main

import (
	"reflect"
	"testing"

	"rmmap/internal/bench"
	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/workloads"
)

const testScale = 0.01

// TestSeededWorkflowsMatchBench pins seededWorkflows to bench.Workflows:
// at seed 1 every workflow must produce the same output and the same
// virtual latency as the grid rmmap-bench runs.
func TestSeededWorkflowsMatchBench(t *testing.T) {
	ours := seededWorkflows(testScale, 1)
	theirs := bench.Workflows(testScale)
	if len(ours) != len(theirs) {
		t.Fatalf("%d workflows, bench has %d", len(ours), len(theirs))
	}
	for i := range ours {
		if ours[i].Name != theirs[i].Name {
			t.Fatalf("workflow %d is %q, bench has %q", i, ours[i].Name, theirs[i].Name)
		}
		a, b := runMessaging(t, ours[i]), runMessaging(t, theirs[i])
		if a.Latency != b.Latency || !reflect.DeepEqual(a.Output, b.Output) {
			t.Errorf("%s: latency %v output %+v, bench %v %+v", ours[i].Name, a.Latency, a.Output, b.Latency, b.Output)
		}
	}
}

func runMessaging(t *testing.T, b bench.WorkflowBuilder) platform.RunResult {
	t.Helper()
	e, err := platform.NewEngine(b.Build(), platform.ModeMessaging, platform.Options{Workers: workers},
		platform.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCorruptOutputFails is the oracle's negative control: a handler
// wrapper that corrupts one reported output must surface as a failed
// request, a non-zero failed_ratio and an incorrect run.
func TestCorruptOutputFails(t *testing.T) {
	wfs := seededWorkflows(testScale, 1)
	g := &fig14{wfs: wfs[3:], modes: []platform.Mode{platform.ModeMessaging, platform.ModeRMMAP}}
	if wfs[3].Name != "WordCount" {
		t.Fatalf("workflow 3 is %s, want WordCount", wfs[3].Name)
	}
	if err := g.setOracle(nil); err != nil {
		t.Fatal(err)
	}
	clean, err := timedRun(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.correct || clean.failed != 0 {
		t.Fatalf("clean run: correct=%v failed=%d notes=%v", clean.correct, clean.failed, clean.notes)
	}

	corrupted := false
	g.wrap = func(_, fn string, h platform.Handler) platform.Handler {
		if fn != "Reduce" {
			return h
		}
		return func(ctx *platform.Ctx) (objrt.Obj, error) {
			if !corrupted {
				corrupted = true
				report := ctx.Report
				ctx.Report = func(v any) {
					r := v.(workloads.WordCountResult)
					r.TotalWords++
					report(r)
				}
			}
			return h(ctx)
		}
	}
	bad, err := timedRun(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad.correct || bad.failed != 1 || metricValue(bad, "failed_ratio") <= 0 {
		t.Fatalf("corrupted run: correct=%v failed=%d failed_ratio=%v", bad.correct, bad.failed,
			metricValue(bad, "failed_ratio"))
	}
}

func metricValue(r *report, name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return -1
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "h", Start: 10, End: 30, Parent: 0},
		{Name: "h", Start: 20, End: 40, Parent: 0},
		{Name: "h", Start: 60, End: 70, Parent: 0},
	}}
	got := tr.summarize()
	if run := got["run"]; run.total != 100 || run.self != 60 {
		t.Errorf("run total %d self %d, want 100 and 60", run.total, run.self)
	}
	if h := got["h"]; h.count != 3 || h.total != 50 || h.self != 50 {
		t.Errorf("h count %d total %d self %d, want 3, 50, 50", h.count, h.total, h.self)
	}
}
