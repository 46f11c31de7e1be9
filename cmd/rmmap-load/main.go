// Command rmmap-load drives open-loop multi-tenant load — Poisson or
// bursty arrivals from thousands of virtual tenants — through the
// admission-controlled engine, optionally under a fault plan, and writes
// the deterministic BENCH_scale.json scale report (DESIGN.md §11).
//
// Usage:
//
//	rmmap-load [-workflow wordcount] [-small] [-rate 200] [-burst-rate 0]
//	           [-burst-every 500ms] [-burst-len 100ms] [-horizon 2s]
//	           [-tenants 1000] [-deadline 0] [-seed 1] [-plan plan.json]
//	           [-topology two-rack | -topology topo.json]
//	           [-queue-limit 256] [-max-inflight 64] [-queue-policy fifo]
//	           [-quota-rate 0] [-quota-burst 0] [-breaker-threshold 8]
//	           [-curve 0.25,0.5,1,2,4] [-save-trace t.jsonl | -trace t.jsonl]
//	           [-json BENCH_scale.json]
//
// -trace replays a saved schedule as is: the report's horizon (last
// arrival + 1) and tenant count come from the trace, not from the
// generator flags, and -curve is rejected with it (the curve regenerates
// its schedules from those flags). A trace with no arrivals is an error.
//
// The whole run happens in virtual time: the report is byte-identical
// across -workers settings and across repeated runs, which the
// determinism suite (internal/bench) enforces.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/load"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

func main() {
	name := flag.String("workflow", "wordcount", "workflow: finra, ml-training, ml-prediction, wordcount")
	small := flag.Bool("small", false, "use the small (test-scale) configuration")
	machines := flag.Int("machines", 4, "cluster size")
	pods := flag.Int("pods", 16, "warm pods")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = all cores); the report is identical at any setting")
	ctrlShards := flag.Int("ctrl-shards", 0, "consistent-hash coordinator shards (0/1 = single coordinator); the report is identical at any setting")
	mode := flag.String("mode", "rmmap", "transfer mode: messaging, pocket, rdma, rmmap, prefetch (or any name platform.ParseMode accepts)")
	topology := flag.String("topology", "", "cluster shape: a platformbuilder recipe name or topology JSON file (see PLATFORMS.md); default flat")

	rate := flag.Float64("rate", 200, "steady offered load, requests per virtual second")
	burstRate := flag.Float64("burst-rate", 0, "offered load inside burst windows (0: no bursts)")
	burstEvery := flag.Duration("burst-every", 500*time.Millisecond, "burst period")
	burstLen := flag.Duration("burst-len", 100*time.Millisecond, "burst window length")
	horizon := flag.Duration("horizon", 2*time.Second, "virtual-time arrival horizon")
	tenants := flag.Int("tenants", 1000, "virtual tenants submitting requests")
	deadline := flag.Duration("deadline", 0, "per-request relative deadline (0: none)")
	seed := flag.Uint64("seed", 1, "arrival-schedule seed; same seed, same schedule")

	planPath := flag.String("plan", "", "JSON fault plan to run the load under")
	replicas := flag.Int("replicas", 0, "backup machines per registration")
	coldStart := flag.Bool("cold-start", false, "charge container cold starts")

	queueLimit := flag.Int("queue-limit", admit.DefaultQueueLimit, "admission queue bound")
	maxInflight := flag.Int("max-inflight", admit.DefaultMaxInflight, "max concurrently running requests")
	queuePolicy := flag.String("queue-policy", "fifo", "admission dequeue order: fifo or deadline")
	regWatermark := flag.Int("reg-watermark", 0, "live-registration backpressure watermark (0: off)")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant token refill rate, requests per virtual second (0: unlimited)")
	quotaBurst := flag.Float64("quota-burst", 0, "per-tenant token-bucket capacity")
	breakerThreshold := flag.Int("breaker-threshold", admit.DefaultBreakerThreshold, "consecutive bad outcomes that trip a tenant's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before half-opening (0: default)")

	curve := flag.String("curve", "", "comma-separated offered-load multipliers for the goodput-vs-offered curve (e.g. 0.5,1,2,4)")
	saveTrace := flag.String("save-trace", "", "write the generated arrival schedule as JSONL and exit")
	tracePath := flag.String("trace", "", "replay a JSONL arrival trace instead of generating one")
	jsonPath := flag.String("json", "", "write the scale report to this file (e.g. BENCH_scale.json)")
	flag.Parse()

	gen := load.BurstSpec{
		BaseRate:   *rate,
		BurstRate:  *burstRate,
		BurstEvery: simtime.Duration(burstEvery.Nanoseconds()),
		BurstLen:   simtime.Duration(burstLen.Nanoseconds()),
		Horizon:    simtime.Duration(horizon.Nanoseconds()),
		Tenants:    *tenants,
		Deadline:   simtime.Duration(deadline.Nanoseconds()),
		Seed:       *seed,
	}
	if *saveTrace != "" {
		events := load.Bursty(gen)
		if err := load.SaveTrace(*saveTrace, events); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d arrivals to %s\n", len(events), *saveTrace)
		return
	}

	var events []load.Event
	if *tracePath != "" {
		var err error
		events, err = load.LoadTrace(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var plan faults.Plan
	if *planPath != "" {
		var err error
		plan, err = faults.LoadPlan(*planPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	policy, err := admit.ParsePolicy(*queuePolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, err := platform.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	multipliers, err := parseCurve(*curve)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	spec := load.SoakSpec{
		Workflow:   *name,
		Small:      *small,
		Mode:       m,
		Machines:   *machines,
		Pods:       *pods,
		Workers:    *workers,
		CtrlShards: *ctrlShards,
		Topology:   *topology,
		Gen:        gen,
		Events:     events,
		Plan:       plan,
		Admission: admit.Config{
			QueueLimit:       *queueLimit,
			MaxInflight:      *maxInflight,
			Policy:           policy,
			RegWatermark:     *regWatermark,
			Quota:            admit.Quota{Rate: *quotaRate, Burst: *quotaBurst},
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  simtime.Duration(breakerCooldown.Nanoseconds()),
		},
		Replicas:         *replicas,
		ColdStart:        *coldStart,
		CurveMultipliers: multipliers,
	}
	rep, err := load.RunSoak(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s (%s): %d tenants, %d arrivals over %gs\n",
		rep.Workflow, rep.Mode, rep.Tenants, rep.Offered, rep.HorizonS)
	fmt.Println(rep.Summary())
	fmt.Printf("sheds: queue-full=%d quota=%d breaker=%d backpressure=%d deadline=%d; breaker trips=%d\n",
		rep.ShedQueueFull, rep.ShedQuota, rep.ShedBreaker, rep.ShedBackpressure,
		rep.ShedDeadline, rep.BreakerTrips)
	fmt.Printf("injected faults: %d\n", rep.InjectedFaults)
	for _, p := range rep.Curve {
		fmt.Printf("  x%g: offered %.1f req/s -> goodput %.1f req/s (shed %.1f%%, p99 %.3fms)\n",
			p.Multiplier, p.OfferedRPS, p.GoodputRPS, 100*p.ShedRate, p.P99Ms)
	}
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func parseCurve(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -curve multiplier %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
