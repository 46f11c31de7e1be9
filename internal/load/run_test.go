package load

import (
	"testing"

	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// pipeline builds produce(list of n ints) → transform(sum) → sink(report
// the sum): a tiny sequential workflow for the driver tests.
func pipeline(n int) *platform.Workflow {
	return &platform.Workflow{
		Name: "pipeline",
		Functions: []*platform.FunctionSpec{
			{Name: "produce", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(i + 1)
				}
				ctx.ChargeCompute(8 * n)
				return ctx.RT.NewIntList(vals)
			}},
			{Name: "transform", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				cnt, err := ctx.Inputs[0].Len()
				if err != nil {
					return objrt.Obj{}, err
				}
				sum := int64(0)
				for i := 0; i < cnt; i++ {
					e, err := ctx.Inputs[0].Index(i)
					if err != nil {
						return objrt.Obj{}, err
					}
					v, err := e.Int()
					if err != nil {
						return objrt.Obj{}, err
					}
					sum += v
				}
				ctx.ChargeCompute(8 * cnt)
				return ctx.RT.NewIntList([]int64{sum})
			}},
			{Name: "sink", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				e, err := ctx.Inputs[0].Index(0)
				if err != nil {
					return objrt.Obj{}, err
				}
				v, err := e.Int()
				if err != nil {
					return objrt.Obj{}, err
				}
				ctx.Report(v)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []platform.Edge{{From: "produce", To: "transform"}, {From: "transform", To: "sink"}},
	}
}

func pipelineEngine(t *testing.T, n int, mode platform.Mode, cfg platform.ClusterConfig) *platform.Engine {
	t.Helper()
	e, err := platform.NewEngine(pipeline(n), mode, platform.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func smallCluster() platform.ClusterConfig { return platform.ClusterConfig{Machines: 3, Pods: 6} }

// TestUniformSchedule pins the fixed-rate schedule: arrival i at
// i·Duration(1s/rate), ⌊horizon/interval⌋ arrivals, anonymous tenant, no
// deadline; the interval clamps to 1 ns; rate ≤ 0 or horizon ≤ 0 is nil.
func TestUniformSchedule(t *testing.T) {
	rate := 3.0
	ev := Uniform(rate, simtime.Second)
	interval := simtime.Duration(float64(simtime.Second) / rate)
	if len(ev) != 3 {
		t.Fatalf("%d arrivals at 3 req/s over 1s, want 3", len(ev))
	}
	for i, e := range ev {
		if e.At != simtime.Time(simtime.Duration(i)*interval) || e.Tenant != "" || e.Deadline != 0 {
			t.Fatalf("arrival %d = %+v, want at %v, anonymous, no deadline", i, e, simtime.Duration(i)*interval)
		}
	}
	if n := len(Uniform(20, 2*simtime.Second)); n != 40 {
		t.Fatalf("%d arrivals at 20 req/s over 2s, want 40", n)
	}
	// A horizon that is an exact multiple of the interval excludes it.
	if ev := Uniform(10, 300*simtime.Millisecond); len(ev) != 3 || ev[2].At != simtime.Time(200*simtime.Millisecond) {
		t.Fatalf("10 req/s over 300ms = %+v, want arrivals at 0, 100ms, 200ms", ev)
	}
	// Beyond 1e9 req/s the interval clamps to 1 ns.
	if ev := Uniform(4e9, 5); len(ev) != 5 || ev[4].At != 4 {
		t.Fatalf("clamped schedule = %+v, want 5 arrivals 1 ns apart", ev)
	}
	for _, c := range []struct {
		rate    float64
		horizon simtime.Duration
	}{{0, simtime.Second}, {-1, simtime.Second}, {10, 0}, {10, -simtime.Second}} {
		if ev := Uniform(c.rate, c.horizon); ev != nil {
			t.Errorf("Uniform(%v, %v) = %d arrivals, want nil", c.rate, c.horizon, len(ev))
		}
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	run := func() Result {
		return Replay(pipelineEngine(t, 200, platform.ModeRMMAP, smallCluster()),
			Uniform(20, 2*simtime.Second), 2*simtime.Second)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Completed == 0 {
		t.Errorf("nondeterministic: %d vs %d", a.Completed, b.Completed)
	}
	if a.Failed+a.Shed != 0 {
		t.Errorf("errors: %d failed, %d shed", a.Failed, a.Shed)
	}
	if a.Percentile(0.5) != b.Percentile(0.5) {
		t.Error("median latency differs across identical runs")
	}
}

func TestClosedLoopSaturates(t *testing.T) {
	run := func(clients int) float64 {
		e := pipelineEngine(t, 200, platform.ModeMessaging, platform.ClusterConfig{Machines: 2, Pods: 4})
		return Closed(e, clients, 2*simtime.Second).Throughput()
	}
	one, many := run(1), run(16)
	if many <= one {
		t.Errorf("throughput did not grow with clients: 1→%.1f 16→%.1f", one, many)
	}
}

func TestOpenLoopThroughputMatchesRate(t *testing.T) {
	e := pipelineEngine(t, 100, platform.ModeRMMAPPrefetch, platform.ClusterConfig{Machines: 3, Pods: 12})
	res := Replay(e, Uniform(50, 2*simtime.Second), 2*simtime.Second)
	if res.Failed+res.Shed != 0 {
		t.Fatalf("errors: %d failed, %d shed", res.Failed, res.Shed)
	}
	// The cluster easily sustains 50 req/s of a tiny pipeline; completed
	// count should be close to offered load.
	if res.Completed < 90 {
		t.Errorf("completed %d of ~100 offered", res.Completed)
	}
	// Timeline buckets sum to completions.
	sum := 0
	for _, c := range res.ThroughputTimeline {
		sum += c
	}
	if sum != res.Completed {
		t.Errorf("timeline sums to %d, completed %d", sum, res.Completed)
	}
}

func TestLoadResultHelpers(t *testing.T) {
	r := Result{
		Completed: 10,
		Horizon:   2 * simtime.Second,
		Latencies: []simtime.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		BusyPods:  []int{2, 4, 6},
	}
	if got := r.Throughput(); got != 5 {
		t.Errorf("throughput = %v", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := r.Percentile(1); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := r.Percentile(0.5); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := r.AvgBusyPods(); got != 4 {
		t.Errorf("avg busy = %v", got)
	}
	// A run that drains past its offered window divides by the drain.
	r.Drained = 5 * simtime.Second
	if got := r.Throughput(); got != 2 {
		t.Errorf("throughput over a 5s drain = %v", got)
	}
	var empty Result
	if empty.Throughput() != 0 || empty.Percentile(0.5) != 0 || empty.AvgBusyPods() != 0 {
		t.Error("empty result helpers not zero")
	}
}

// TestClosedLoopConservation: the closed loop conserves requests —
// completions equal submissions minus the in-flight tail at the horizon,
// which is at most one request per client.
func TestClosedLoopConservation(t *testing.T) {
	const clients = 6
	e := pipelineEngine(t, 300, platform.ModeMessaging, platform.ClusterConfig{Machines: 2, Pods: 4})
	res := Closed(e, clients, 500*simtime.Millisecond)
	if res.Failed+res.Shed != 0 {
		t.Fatalf("errors: %d failed, %d shed", res.Failed, res.Shed)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if tail := res.Offered - res.Completed; tail < 0 || tail > clients {
		t.Errorf("offered %d, completed %d: in-flight tail %d outside [0, %d]",
			res.Offered, res.Completed, tail, clients)
	}
	if len(res.Latencies) != res.Completed {
		t.Errorf("latencies %d vs completed %d", len(res.Latencies), res.Completed)
	}
	for i := 1; i < len(res.Latencies); i++ {
		if res.Latencies[i] < res.Latencies[i-1] {
			t.Fatal("latencies not sorted")
		}
	}
	if want := int(res.Horizon/sampleEvery) + 1; len(res.BusyPods) != want {
		t.Errorf("%d busy-pod samples over %v, want %d", len(res.BusyPods), res.Horizon, want)
	}
}

// TestLoadResultLatencyHistogram: quantiles from the histogram must bracket
// the exact percentile from the sorted sample.
func TestLoadResultLatencyHistogram(t *testing.T) {
	e := pipelineEngine(t, 100, platform.ModeMessaging, smallCluster())
	res := Replay(e, Uniform(200, 200*simtime.Millisecond), 200*simtime.Millisecond)
	if res.Failed+res.Shed > 0 || res.Completed == 0 {
		t.Fatalf("open loop: %d completed, %d failed, %d shed", res.Completed, res.Failed, res.Shed)
	}
	h := res.LatencyHistogram()
	if h.Count() != int64(len(res.Latencies)) {
		t.Fatalf("histogram count %d, latencies %d", h.Count(), len(res.Latencies))
	}
	exact := res.Percentile(0.5)
	est := simtime.Duration(h.Quantile(0.5))
	// Exponential buckets: the estimate must be within one bucket (2x).
	if est < exact/2 || est > exact*2 {
		t.Fatalf("p50 estimate %v too far from exact %v", est, exact)
	}
}
