package load

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// testEngine builds a fresh small-wordcount chaos engine; adm == nil runs
// without admission control.
func testEngine(t *testing.T, adm *admit.Config, workers int) *platform.Engine {
	t.Helper()
	wf, err := Workflow("wordcount", true)
	if err != nil {
		t.Fatal(err)
	}
	rec := platform.DefaultRecoveryPolicy()
	e, err := platform.NewEngine(wf, platform.ModeRMMAP, platform.Options{Recovery: rec, Admission: adm, Workers: workers},
		platform.ClusterConfig{Machines: 4, Pods: 16, Chaos: &faults.Plan{}, Retry: rec.Retry})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReplayConservation(t *testing.T) {
	events := Poisson(PoissonSpec{Rate: 150, Horizon: 300 * simtime.Millisecond,
		Tenants: 4, Seed: 3})
	e := testEngine(t, nil, 0)
	res := Replay(e, events, 300*simtime.Millisecond)
	if res.Offered != len(events) {
		t.Fatalf("offered %d, scheduled %d", res.Offered, len(events))
	}
	if res.Completed+res.Failed+res.Shed != res.Offered {
		t.Fatalf("conservation: %d+%d+%d != %d",
			res.Completed, res.Failed, res.Shed, res.Offered)
	}
	// No faults and no admission layer: everything completes.
	if res.Failed != 0 || res.Shed != 0 {
		t.Fatalf("failed=%d shed=%d on a fault-free run", res.Failed, res.Shed)
	}
	if len(res.Latencies) != res.Completed {
		t.Fatalf("%d latencies for %d completions", len(res.Latencies), res.Completed)
	}
	var off, comp int
	for _, ts := range res.ByTenant {
		off += ts.Offered
		comp += ts.Completed
	}
	if off != res.Offered || comp != res.Completed {
		t.Fatalf("per-tenant sums %d/%d vs %d/%d", off, comp, res.Offered, res.Completed)
	}
	if res.Drained < simtime.Duration(events[len(events)-1].At) {
		t.Fatalf("drained at %v before the last arrival", res.Drained)
	}
}

// TestGoodputAtTwiceCapacity is the ISSUE acceptance bound: with the
// admission layer on, offered load at 2x the measured capacity must still
// yield goodput >= 80% of that capacity — overload degrades by shedding,
// not by collapsing.
func TestGoodputAtTwiceCapacity(t *testing.T) {
	// Measure capacity closed-loop on a fresh engine (no admission), with
	// concurrency matching the admission layer's inflight limit.
	cap := Closed(testEngine(t, nil, 0), admit.DefaultMaxInflight, 500*simtime.Millisecond).Throughput()
	if cap <= 0 {
		t.Fatal("measured zero capacity")
	}

	horizon := 500 * simtime.Millisecond
	events := Poisson(PoissonSpec{Rate: 2 * cap, Horizon: horizon, Tenants: 16, Seed: 17})
	e := testEngine(t, &admit.Config{}, 0)
	res := Replay(e, events, horizon)
	if got := res.OfferedRPS(); got < 1.5*cap {
		t.Fatalf("offered %.1f req/s, wanted ~2x capacity %.1f", got, cap)
	}
	if res.Shed == 0 {
		t.Fatal("2x overload shed nothing — admission layer inactive?")
	}
	if goodput := res.GoodputRPS(); goodput < 0.8*cap {
		t.Fatalf("goodput %.1f req/s < 80%% of capacity %.1f (shed %d of %d)",
			goodput, cap, res.Shed, res.Offered)
	}
}

// TestBreakerIsolation pins the ISSUE's isolation bound: a tenant whose
// breaker trips must not affect other tenants' latency. Tenant "bad" is
// fenced off by a deny-all quota (every arrival sheds, tripping its
// breaker); tenant "good" must see byte-identical latencies whether or not
// "bad" is hammering the front door.
func TestBreakerIsolation(t *testing.T) {
	adm := admit.Config{
		TenantQuota:      map[string]admit.Quota{"bad": {Burst: -1}},
		BreakerThreshold: 4,
	}
	horizon := 400 * simtime.Millisecond
	good := Poisson(PoissonSpec{Rate: 300, Horizon: horizon, Seed: 5})
	for i := range good {
		good[i].Tenant = "good"
	}
	bad := Poisson(PoissonSpec{Rate: 500, Horizon: horizon, Seed: 6})
	for i := range bad {
		bad[i].Tenant = "bad"
	}

	mixed := Replay(testEngine(t, &adm, 0), append(append([]Event{}, good...), bad...), horizon)
	alone := Replay(testEngine(t, &adm, 0), good, horizon)

	if mixed.Admission.BreakerTrips < 1 {
		t.Fatalf("bad tenant's breaker never tripped (stats %+v)", mixed.Admission)
	}
	bt := mixed.ByTenant["bad"]
	if bt.Shed != bt.Offered || bt.Completed != 0 {
		t.Fatalf("bad tenant: offered %d shed %d completed %d",
			bt.Offered, bt.Shed, bt.Completed)
	}
	if !reflect.DeepEqual(mixed.ByTenant["good"].Latencies, alone.ByTenant["good"].Latencies) {
		t.Fatalf("good tenant's latencies changed under bad-tenant overload: %d vs %d samples",
			len(mixed.ByTenant["good"].Latencies), len(alone.ByTenant["good"].Latencies))
	}
	if mixed.ByTenant["good"].Completed != alone.ByTenant["good"].Completed {
		t.Fatal("good tenant completion count changed")
	}
}

// TestRunSoakReportDeterministic checks BENCH_scale.json bytes are
// identical across worker counts and fresh runs, including under faults
// and a goodput curve.
func TestRunSoakReportDeterministic(t *testing.T) {
	spec := SoakSpec{
		Workflow: "wordcount",
		Small:    true,
		Mode:     platform.ModeRMMAP,
		Machines: 4,
		Pods:     16,
		Gen: BurstSpec{
			BaseRate:   150,
			BurstRate:  600,
			BurstEvery: 200 * simtime.Millisecond,
			BurstLen:   50 * simtime.Millisecond,
			Horizon:    400 * simtime.Millisecond,
			Tenants:    32,
			Deadline:   20 * simtime.Millisecond,
			Seed:       21,
		},
		Plan: faults.Plan{
			Seed: 99,
			Rules: []faults.Rule{
				{Site: faults.SiteRPC, Target: faults.AnyMachine, Prob: 0.05},
			},
			Partitions: []faults.Partition{
				{From: 1, To: 0, After: simtime.Time(100 * simtime.Millisecond),
					Until: simtime.Time(150 * simtime.Millisecond)},
			},
		},
		Admission:        admit.Config{QueueLimit: 64, MaxInflight: 32},
		CurveMultipliers: []float64{0.5, 1, 2},
	}

	render := func(workers int) []byte {
		spec := spec
		spec.Workers = workers
		rep, err := RunSoak(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	w1 := render(1)
	w8 := render(8)
	again := render(1)
	if !bytes.Equal(w1, w8) {
		t.Fatalf("report differs across Workers 1 vs 8:\n%s\nvs\n%s", w1, w8)
	}
	if !bytes.Equal(w1, again) {
		t.Fatal("report differs across fresh runs")
	}
	rep, err := RunSoak(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Completed == 0 {
		t.Fatalf("soak did no work: %+v", rep)
	}
	if len(rep.Curve) != 3 {
		t.Fatalf("curve has %d points", len(rep.Curve))
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestRunSoakTraceReportsTraceLoad: a soak replaying a trace reports the
// trace's load — its arrivals, its window (last arrival + 1) and its
// distinct tenants — not the generator settings left in Gen, and no seed.
func TestRunSoakTraceReportsTraceLoad(t *testing.T) {
	recorded := BurstSpec{BaseRate: 100, Horizon: 400 * simtime.Millisecond, Tenants: 5, Seed: 3}
	events := Bursty(recorded)
	tenants := map[string]bool{}
	for _, ev := range events {
		tenants[ev.Tenant] = true
	}
	rep, err := RunSoak(SoakSpec{
		Workflow: "wordcount", Small: true, Mode: platform.ModeRMMAP,
		// Stale generator settings: a different rate, window, tenant
		// count and seed than the trace was recorded with.
		Gen:    BurstSpec{BaseRate: 200, Horizon: 2 * simtime.Second, Tenants: 1000, Seed: 1},
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	window := simtime.Duration(events[len(events)-1].At) + 1
	if rep.Offered != len(events) || rep.HorizonS != window.Seconds() ||
		rep.Tenants != len(tenants) || rep.Seed != 0 {
		t.Fatalf("trace soak reported offered=%d horizon=%gs tenants=%d seed=%d, want %d, %gs, %d, 0",
			rep.Offered, rep.HorizonS, rep.Tenants, rep.Seed, len(events), window.Seconds(), len(tenants))
	}
	if want := float64(len(events)) / window.Seconds(); rep.OfferedRPS != want {
		t.Fatalf("offered %.1f req/s, want the trace's %.1f", rep.OfferedRPS, want)
	}
}

// TestRunSoakRejectsCurveWithTrace: the goodput curve regenerates its
// schedule from Gen, so asking for one while replaying a trace would
// measure a load the trace never described.
func TestRunSoakRejectsCurveWithTrace(t *testing.T) {
	_, err := RunSoak(SoakSpec{
		Workflow: "wordcount", Small: true, Mode: platform.ModeRMMAP,
		Events:           []Event{{At: 0, Tenant: "t0000"}},
		CurveMultipliers: []float64{1, 2},
	})
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("curve with a trace: err=%v, want a rejection", err)
	}
}
