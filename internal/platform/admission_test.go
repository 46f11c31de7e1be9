package platform

import (
	"errors"
	"strings"
	"testing"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// submitN submits n tenant-labelled requests at t=0 and runs to drain,
// returning results in completion order.
func submitN(t *testing.T, e *Engine, n int, info SubmitInfo) []RunResult {
	t.Helper()
	var results []RunResult
	for i := 0; i < n; i++ {
		e.SubmitTenant(info, func(r RunResult) { results = append(results, r) })
	}
	e.Cluster.Sim.Run()
	return results
}

// assertNoLeaks checks the cluster invariants a finished (or shed) request
// must leave behind: no busy pods, no queued invocations, no tracked
// registrations coordinator- or kernel-side.
func assertNoLeaks(t *testing.T, e *Engine) {
	t.Helper()
	if n := e.BusyPods(); n != 0 {
		t.Errorf("%d pods still busy after drain", n)
	}
	if n := e.QueueLen(); n != 0 {
		t.Errorf("%d invocations still queued after drain", n)
	}
	if n := e.AdmissionQueueLen(); n != 0 {
		t.Errorf("%d submissions still in the admission queue", n)
	}
	if n := e.LiveRegistrations(); n != 0 {
		t.Errorf("coordinator still tracks %d registrations", n)
	}
	for i, k := range e.Cluster.Kernels {
		if n := k.Registrations(); n != 0 {
			t.Errorf("kernel %d still holds %d registrations", i, n)
		}
	}
}

func TestAdmissionQueueDrains(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(100), ModeRMMAP,
		Options{Admission: &admit.Config{MaxInflight: 2, QueueLimit: 8}},
		smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	results := submitN(t, e, 6, SubmitInfo{Tenant: "t"})
	if len(results) != 6 {
		t.Fatalf("%d of 6 requests completed", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Shed {
			t.Fatalf("request %d: err=%v shed=%v", i, r.Err, r.Shed)
		}
		if r.Tenant != "t" {
			t.Fatalf("request %d tenant %q", i, r.Tenant)
		}
	}
	s := e.AdmissionStats()
	if s.Admitted != 6 || s.Queued != 4 || s.Sheds() != 0 {
		t.Fatalf("stats %+v: want 6 admitted, 4 queued, 0 sheds", s)
	}
	assertNoLeaks(t, e)
}

func TestAdmissionQueueFullShed(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(100), ModeRMMAP,
		Options{Trace: true, Admission: &admit.Config{MaxInflight: 1, QueueLimit: 1}},
		smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	results := submitN(t, e, 4, SubmitInfo{Tenant: "t"})
	if len(results) != 4 {
		t.Fatalf("%d of 4 requests completed", len(results))
	}
	var shed []RunResult
	for _, r := range results {
		if r.Shed {
			shed = append(shed, r)
		}
	}
	if len(shed) != 2 {
		t.Fatalf("%d sheds, want 2 (1 running + 1 queued of 4)", len(shed))
	}
	for _, r := range shed {
		if r.ShedReason != "queue-full" {
			t.Errorf("shed reason %q", r.ShedReason)
		}
		if !errors.Is(r.Err, admit.ErrOverloaded) {
			t.Errorf("shed error %v does not match ErrOverloaded", r.Err)
		}
		if r.DeadlineExceeded {
			t.Error("queue-full shed marked DeadlineExceeded")
		}
		// Sheds are visible on timelines as synthetic admission spans.
		if len(r.Trace) != 1 || r.Trace[0].Node != "admission" || !r.Trace[0].Shed {
			t.Errorf("shed trace = %+v, want one admission span", r.Trace)
		}
	}
	s := e.AdmissionStats()
	if s.ShedQueueFull != 2 || s.Admitted != 2 {
		t.Fatalf("stats %+v: want 2 queue-full sheds, 2 admitted", s)
	}
	assertNoLeaks(t, e)
}

func TestAdmissionDeadlineExpiresInQueue(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(2000), ModeRMMAP,
		Options{Admission: &admit.Config{MaxInflight: 1, QueueLimit: 8}},
		smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	var first, starved RunResult
	e.SubmitTenant(SubmitInfo{Tenant: "a"}, func(r RunResult) { first = r })
	// The second request's deadline expires long before the first request
	// frees the only inflight slot: its queue timer must shed it.
	e.SubmitTenant(SubmitInfo{Tenant: "b", Deadline: simtime.Microsecond},
		func(r RunResult) { starved = r })
	e.Cluster.Sim.Run()

	if first.Err != nil || first.Shed {
		t.Fatalf("first request: err=%v shed=%v", first.Err, first.Shed)
	}
	if !starved.Shed || !starved.DeadlineExceeded || starved.ShedReason != "deadline" {
		t.Fatalf("starved request: shed=%v deadline=%v reason=%q",
			starved.Shed, starved.DeadlineExceeded, starved.ShedReason)
	}
	if !errors.Is(starved.Err, admit.ErrDeadlineExceeded) {
		t.Fatalf("starved error %v does not match ErrDeadlineExceeded", starved.Err)
	}
	if s := e.AdmissionStats(); s.ShedDeadline != 1 {
		t.Fatalf("stats %+v: want 1 deadline shed", s)
	}
	assertNoLeaks(t, e)
}

// deadlineLadderRun runs chaosFanWorkflow under one fault plan with a
// request deadline, at a given worker count.
func deadlineLadderRun(t *testing.T, plan faults.Plan, opts Options,
	deadline simtime.Duration, workers int) (RunResult, *Engine) {
	t.Helper()
	opts.Workers = workers
	retry := faults.DefaultRetryPolicy()
	if opts.Recovery != nil && opts.Recovery.Retry.MaxAttempts > 0 {
		retry = opts.Recovery.Retry
	}
	e, err := NewEngine(chaosFanWorkflow(1000), ModeRMMAPPrefetch, opts,
		ClusterConfig{Machines: 3, Pods: 6, Chaos: &plan, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	cluster := e.Cluster
	var res RunResult
	e.SubmitTenant(SubmitInfo{Tenant: "t", Deadline: deadline},
		func(r RunResult) { res = r })
	cluster.Sim.Run()
	return res, e
}

// TestDeadlineAcrossRecoveryLadder drives a deadline into each recovery
// rung — transport backoff, crash failover, partition park — and asserts
// the request sheds deterministically (identical across worker counts)
// without leaking pods, queue slots, or registrations.
func TestDeadlineAcrossRecoveryLadder(t *testing.T) {
	// Calibrate: the clean fan run's latency bounds the deadlines below.
	clean, _ := deadlineLadderRun(t, faults.Plan{Seed: chaosSeed},
		Options{Recovery: DefaultRecoveryPolicy()}, 0, 0)
	if clean.Err != nil {
		t.Fatalf("clean run failed: %v", clean.Err)
	}

	cases := []struct {
		name string
		plan faults.Plan
		opts Options
	}{
		{
			// Every rmmap.auth RPC faults: transport retries burn backoff
			// until the budget exhausts, then the ladder climbs into
			// re-execution — the deadline expires along the way.
			name: "backoff",
			plan: faults.Plan{Seed: chaosSeed, Rules: []faults.Rule{
				{Site: faults.SiteRPC, Target: faults.AnyMachine,
					Endpoint: "rmmap.auth", Prob: 1.0},
			}},
			opts: Options{Recovery: DefaultRecoveryPolicy()},
		},
		{
			// Machine 0 crashes mid-run with replication on: failover and
			// re-execution repair work costs virtual time past the deadline.
			name: "failover",
			plan: faults.Plan{Seed: chaosSeed, Crashes: []faults.Crash{
				{Machine: 0, At: simtime.Time(clean.Latency / 4)},
			}},
			opts: Options{Recovery: DefaultRecoveryPolicy(), Replicas: 1},
		},
		{
			// A never-lifting partition of everyone toward machine 0: the
			// partition rung parks and must shed at the deadline instead of
			// burning its full wait budget.
			name: "partition",
			plan: faults.Plan{Seed: chaosSeed, Partitions: []faults.Partition{
				{From: 1, To: 0, After: 0, Until: 0},
				{From: 2, To: 0, After: 0, Until: 0},
			}},
			opts: Options{Recovery: DefaultRecoveryPolicy()},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A deadline below the clean latency: under faults the request
			// cannot possibly make it, so the outcome is always a shed.
			deadline := clean.Latency / 2
			res, e := deadlineLadderRun(t, tc.plan, tc.opts, deadline, 0)
			if !res.Shed || !res.DeadlineExceeded {
				t.Fatalf("shed=%v deadlineExceeded=%v err=%v (want deadline shed)",
					res.Shed, res.DeadlineExceeded, res.Err)
			}
			if res.ShedReason != "deadline" {
				t.Fatalf("shed reason %q", res.ShedReason)
			}
			if !errors.Is(res.Err, admit.ErrDeadlineExceeded) {
				t.Fatalf("error %v does not match ErrDeadlineExceeded", res.Err)
			}
			assertNoLeaks(t, e)

			// The shed instant and recovery counters are deterministic
			// across worker counts.
			w8, e8 := deadlineLadderRun(t, tc.plan, tc.opts, deadline, 8)
			if w8.Latency != res.Latency || w8.Shed != res.Shed ||
				w8.PartitionWaits != res.PartitionWaits ||
				w8.Failovers != res.Failovers || w8.Reexecs != res.Reexecs {
				t.Fatalf("workers 1 vs 8 diverge:\n w1: lat=%v waits=%d fo=%d re=%d\n w8: lat=%v waits=%d fo=%d re=%d",
					res.Latency, res.PartitionWaits, res.Failovers, res.Reexecs,
					w8.Latency, w8.PartitionWaits, w8.Failovers, w8.Reexecs)
			}
			assertNoLeaks(t, e8)
		})
	}
}

// TestPartitionParkFastFail pins the fast-fail contract of the partition
// rung: while the injector says the window is still open, the parked
// invocation re-parks in place — no re-run, no transport retries, and no
// PRNG draws — exactly as CrashedNow short-circuits retries on crashed
// machines. A prob-0 tripwire rule makes any RPC during the window visible
// as a draw-count increase.
func TestPartitionParkFastFail(t *testing.T) {
	opts := Options{Trace: true, Recovery: DefaultRecoveryPolicy()}
	run := func(plan faults.Plan, probes func(c *Cluster)) (RunResult, *Cluster) {
		e, err := NewEngine(chaosFanWorkflow(1000), ModeRMMAPPrefetch, opts,
			ClusterConfig{Machines: 3, Pods: 6, Chaos: &plan, Retry: faults.DefaultRetryPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		cluster := e.Cluster
		if probes != nil {
			probes(cluster)
		}
		var res RunResult
		e.SubmitTenant(SubmitInfo{}, func(r RunResult) { res = r })
		cluster.Sim.Run()
		return res, cluster
	}

	// Discover a genuinely remote consumer→producer edge from a clean run.
	clean, _ := run(faults.Plan{Seed: chaosSeed}, nil)
	if clean.Err != nil {
		t.Fatalf("clean run: %v", clean.Err)
	}
	src := findSpan(t, clean.Trace, "src#0")
	cons := Span{Machine: src.Machine}
	for _, s := range clean.Trace {
		if strings.HasPrefix(s.Node, "worker") && s.Machine != src.Machine {
			cons = s
			break
		}
	}
	if cons.Machine == src.Machine {
		t.Fatal("no worker off the src machine")
	}

	// Partition consumer→producer for 2 ms past the consume instant, with a
	// prob-0 rule drawing on every RPC — the draw counter is the tripwire.
	lift := cons.Start.Add(2 * simtime.Millisecond)
	plan := faults.Plan{Seed: chaosSeed,
		Partitions: []faults.Partition{
			{From: memsim.MachineID(cons.Machine), To: memsim.MachineID(src.Machine),
				After: 0, Until: lift},
		},
		Rules: []faults.Rule{
			{Site: faults.SiteRPC, Target: faults.AnyMachine, Prob: 0},
		},
	}

	// Probe draw/retry counters twice deep inside the window, after the
	// unpartitioned workers have quiesced: between the probes the only
	// activity is the parked invocation's wait ticks.
	t1 := lift.Add(-simtime.Millisecond)
	t2 := lift.Add(-simtime.Microsecond)
	var draws1, draws2 uint64
	var retries1, retries2 int
	res, _ := run(plan, func(c *Cluster) {
		c.Sim.At(t1, func() { draws1, retries1 = c.Injector.Draws(), c.Retries() })
		c.Sim.At(t2, func() { draws2, retries2 = c.Injector.Draws(), c.Retries() })
	})

	if res.Err != nil || res.Output != pipelineSum {
		t.Fatalf("healed run: err=%v output=%v", res.Err, res.Output)
	}
	if res.PartitionWaits == 0 {
		t.Fatal("no partition waits despite the window")
	}
	if draws2 != draws1 {
		t.Fatalf("parked window consumed %d PRNG draws (%d → %d): the park loop re-ran the invocation",
			draws2-draws1, draws1, draws2)
	}
	if retries2 != retries1 {
		t.Fatalf("parked window burned %d transport retries (%d → %d)",
			retries2-retries1, retries1, retries2)
	}
	// Partition failures bypass the transport retry loop entirely: the
	// whole run charges zero retry time.
	if got := res.Meter.Get(simtime.CatRetry); got != 0 {
		t.Fatalf("CatRetry = %v, want 0 (partitions must not burn backoff)", got)
	}
}
