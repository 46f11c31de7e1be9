package workloads

import (
	"reflect"
	"testing"

	"rmmap/internal/faults"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// chaosSeed matches the platform chaos suite's seed so every fault
// schedule in the repo reproduces from one number.
const chaosSeed = 20260805

// transientPlan drops a small fraction of every remote operation class —
// reads, doorbell batches, and RPCs — cluster-wide.
func transientPlan() faults.Plan {
	return faults.Plan{Seed: chaosSeed, Rules: []faults.Rule{
		{Site: faults.SiteRDMARead, Target: faults.AnyMachine, Prob: 0.1},
		{Site: faults.SiteDoorbell, Target: faults.AnyMachine, Prob: 0.1},
		{Site: faults.SiteRPC, Target: faults.AnyMachine, Prob: 0.1},
	}}
}

func runChaosWorkflow(t *testing.T, wf *platform.Workflow, plan faults.Plan) platform.RunResult {
	t.Helper()
	rec := platform.DefaultRecoveryPolicy()
	e, err := platform.NewEngine(wf, platform.ModeRMMAPPrefetch, platform.Options{Trace: true, Recovery: rec},
		platform.ClusterConfig{Machines: 4, Pods: 16, Chaos: &plan, Retry: rec.Retry})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Run()
	return res
}

// TestFig14WorkflowsSurviveTransientFaults runs every fig14 workflow under
// the seeded transient-fault schedule and checks the result is identical to
// the clean run — the retry/re-execution machinery must be invisible to the
// application — with all recovery work bounded and charged to virtual time.
func TestFig14WorkflowsSurviveTransientFaults(t *testing.T) {
	cases := []struct {
		name string
		wf   func() *platform.Workflow
	}{
		{"finra", func() *platform.Workflow { return FINRA(SmallFINRA()) }},
		{"mltrain", func() *platform.Workflow { return MLTrain(SmallMLTrain()) }},
		{"mlpredict", func() *platform.Workflow { return MLPredict(SmallMLPredict()) }},
		{"wordcount", func() *platform.Workflow { return WordCount(SmallWordCount()) }},
	}
	totalRetries := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := runChaosWorkflow(t, tc.wf(), faults.Plan{Seed: chaosSeed})
			if clean.Err != nil {
				t.Fatalf("clean run failed: %v", clean.Err)
			}
			faulted := runChaosWorkflow(t, tc.wf(), transientPlan())
			if faulted.Err != nil {
				t.Fatalf("faulted run failed: %v", faulted.Err)
			}
			if !reflect.DeepEqual(clean.Output, faulted.Output) {
				t.Fatalf("faulted output diverged:\nclean:   %#v\nfaulted: %#v",
					clean.Output, faulted.Output)
			}
			if faulted.Reexecs > platform.DefaultMaxReexecutions {
				t.Fatalf("reexecs %d exceeded budget %d",
					faulted.Reexecs, platform.DefaultMaxReexecutions)
			}
			if faulted.Retries > 0 && faulted.Meter.Get(simtime.CatRetry) == 0 {
				t.Fatalf("%d retries but no CatRetry charge", faulted.Retries)
			}
			totalRetries += faulted.Retries

			// Same schedule, same run: determinism end to end.
			again := runChaosWorkflow(t, tc.wf(), transientPlan())
			if again.Latency != faulted.Latency || again.Retries != faulted.Retries ||
				again.Reexecs != faulted.Reexecs {
				t.Fatalf("faulted run not deterministic: (%v,%d,%d) vs (%v,%d,%d)",
					faulted.Latency, faulted.Retries, faulted.Reexecs,
					again.Latency, again.Retries, again.Reexecs)
			}
		})
	}
	if totalRetries == 0 {
		t.Fatalf("no workflow recorded a retry under a 10%% fault schedule")
	}
}
