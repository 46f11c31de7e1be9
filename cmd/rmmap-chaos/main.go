// Command rmmap-chaos runs a built-in workflow under a seeded,
// deterministic fault-injection plan (DESIGN.md §7, §9) and reports what
// the recovery ladder did: transport retries, partition waits, replica
// failovers, messaging degradations, producer re-executions, and deadline
// sheds. It exits non-zero when any request exhausts its recovery budget.
//
// Usage:
//
//	rmmap-chaos [-workflow finra] [-small] [-seed 20260805] [-prob 0.1]
//	            [-crash-machine 1 -crash-at 100us] [-plan plan.json]
//	            [-topology two-rack | -topology topo.json]
//	            [-requests 1] [-deadline 0] [-replicas 1]
//	            [-no-recovery] [-trace]
//	            [-ctrl-journal ctrl.save]
//
// A -plan file replaces the flag-built plan entirely (see
// cmd/rmmap-chaos/plans/ for examples including partitions and the
// coordinator crash/recovery schedules of DESIGN.md §13). -topology runs
// the same plan on a multi-rack cluster shape — a platformbuilder recipe
// or topology JSON file (PLATFORMS.md) — so faults land on machines with
// ToR/spine hop costs and link contention in play. -ctrl-journal dumps
// the coordinator's durable image (snapshot + journal tail) after the
// run; audit it with rmmap-plan -verify. For open-loop multi-tenant load
// against the same plans, see cmd/rmmap-load.
package main

import (
	"flag"
	"fmt"
	"os"

	"rmmap/internal/faults"
	"rmmap/internal/load"
	"rmmap/internal/memsim"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

func main() {
	name := flag.String("workflow", "finra", "workflow: finra, ml-training, ml-prediction, wordcount")
	small := flag.Bool("small", false, "use the small (test-scale) configuration")
	planPath := flag.String("plan", "", "JSON fault plan (overrides -seed/-prob/-crash-* flags)")
	seed := flag.Uint64("seed", 20260805, "fault-plan seed; same seed, same schedule")
	prob := flag.Float64("prob", 0.1, "transient-fault probability on remote reads, doorbells and RPCs")
	endpoint := flag.String("endpoint", "", "restrict the RPC rule to one endpoint (e.g. rmmap.auth)")
	crashMachine := flag.Int("crash-machine", -1, "machine to crash (-1: none)")
	crashAt := flag.Duration("crash-at", 0, "virtual-time instant of the crash (e.g. 100us)")
	requests := flag.Int("requests", 1, "back-to-back requests to run")
	deadline := flag.Duration("deadline", 0, "per-request deadline in virtual time (0: none); an expired request sheds instead of climbing the ladder")
	noRecovery := flag.Bool("no-recovery", false, "negative control: disable the recovery ladder")
	maxReexecs := flag.Int("max-reexecs", platform.DefaultMaxReexecutions, "producer re-execution budget per request")
	degradeAfter := flag.Int("degrade-after", platform.DefaultDegradeAfter, "edge failures before falling back to messaging")
	replicas := flag.Int("replicas", 0, "backup machines per registration (0: replication off)")
	machines := flag.Int("machines", 4, "cluster size")
	topology := flag.String("topology", "", "cluster shape: a platformbuilder recipe name or topology JSON file (see PLATFORMS.md); default flat")
	pods := flag.Int("pods", 16, "warm pods")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = all cores, 1 = sequential); the fault schedule and outcome are identical at any setting")
	ctrlShards := flag.Int("ctrl-shards", 0, "consistent-hash coordinator shards (0/1 = single coordinator); a plan's \"shard\" field can then target one shard's crash")
	trace := flag.Bool("trace", false, "print the per-invocation execution timeline")
	ctrlJournal := flag.String("ctrl-journal", "", "write the coordinator's durable image (snapshot + journal) to this file after the run")
	flag.Parse()

	wf, err := load.Workflow(*name, *small)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var plan faults.Plan
	if *planPath != "" {
		plan, err = faults.LoadPlan(*planPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		plan = faults.Plan{Seed: *seed}
		if *prob > 0 {
			plan.Rules = []faults.Rule{
				{Site: faults.SiteRDMARead, Target: faults.AnyMachine, Prob: *prob},
				{Site: faults.SiteDoorbell, Target: faults.AnyMachine, Prob: *prob},
				{Site: faults.SiteRPC, Target: faults.AnyMachine, Endpoint: *endpoint, Prob: *prob},
			}
		}
		if *crashMachine >= 0 {
			plan.Crashes = []faults.Crash{{
				Machine: memsim.MachineID(*crashMachine),
				At:      simtime.Time(crashAt.Nanoseconds()),
			}}
		}
	}

	rec := platform.DefaultRecoveryPolicy()
	rec.MaxReexecutions = *maxReexecs
	rec.DegradeAfter = *degradeAfter
	opts := platform.Options{
		Trace:      *trace,
		Recovery:   rec,
		Replicas:   *replicas,
		Workers:    *workers,
		CtrlShards: *ctrlShards,
	}
	if *noRecovery {
		opts.Recovery = nil
	}
	cfg, _, err := platformbuilder.Resolve(*topology, *machines, *pods)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-topology: %v (known recipes: %v)\n", err, platformbuilder.Recipes())
		os.Exit(1)
	}
	cfg.Chaos, cfg.Retry = &plan, rec.Retry
	engine, err := platform.NewEngine(wf, platform.ModeRMMAPPrefetch, opts, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		os.Exit(1)
	}
	cluster := engine.Cluster
	defer cluster.Close()

	if *planPath != "" {
		fmt.Printf("plan: %s (seed=%d rules=%d crashes=%d partitions=%d coord-crashes=%d coord-partitions=%d)",
			*planPath, plan.Seed, len(plan.Rules), len(plan.Crashes), len(plan.Partitions),
			len(plan.CoordCrashes), len(plan.CoordPartitions))
	} else {
		fmt.Printf("plan: seed=%d prob=%g", *seed, *prob)
		if *crashMachine >= 0 {
			fmt.Printf(" crash=machine%d@%v", *crashMachine, simtime.Duration((*crashAt).Nanoseconds()))
		}
	}
	if *replicas > 0 {
		fmt.Printf(" replicas=%d", *replicas)
	}
	if *noRecovery {
		fmt.Printf(" recovery=off")
	}
	if *deadline > 0 {
		fmt.Printf(" deadline=%v", simtime.Duration(deadline.Nanoseconds()))
	}
	fmt.Println()

	if *requests < 1 {
		*requests = 1
	}
	results := make([]platform.RunResult, 0, *requests)
	var submit func()
	submit = func() {
		engine.SubmitTenant(
			platform.SubmitInfo{Deadline: simtime.Duration(deadline.Nanoseconds())},
			func(out platform.RunResult) {
				results = append(results, out)
				if len(results) < *requests {
					submit()
				}
			})
	}
	submit()
	engine.Cluster.Sim.Run()

	fmt.Printf("injected faults: %d\n", cluster.Injector.Total())

	var completed, shed, failed int
	var retries, waits, failovers, degradations, reexecs int
	var backoff simtime.Duration
	for _, res := range results {
		retries += res.Retries
		waits += res.PartitionWaits
		failovers += res.Failovers
		degradations += res.Fallbacks
		reexecs += res.Reexecs
		backoff += res.Meter.Get(simtime.CatRetry)
		switch {
		case res.Shed:
			shed++
		case res.Err != nil:
			failed++
		default:
			completed++
		}
	}
	for i, res := range results {
		switch {
		case res.Shed:
			fmt.Printf("request %d SHED (%s) after %v: %v\n", i, res.ShedReason, res.Latency, res.Err)
		case res.Err != nil:
			fmt.Printf("request %d FAILED: %v\n", i, res.Err)
		default:
			fmt.Printf("request %d completed: latency %v result %+v\n", i, res.Latency, res.Output)
		}
	}
	fmt.Printf("requests: completed=%d shed=%d failed=%d\n", completed, shed, failed)
	fmt.Printf("recovery: retries=%d (backoff %v under %v) waits=%d failovers=%d degradations=%d reexecs=%d sheds=%d\n",
		retries, backoff, simtime.CatRetry, waits, failovers, degradations, reexecs, shed)
	if last := results[len(results)-1]; last.ReplicatedBytes > 0 || last.LeaseExpiries > 0 {
		fmt.Printf("liveness: replicated %d bytes, lease expiries=%d\n",
			last.ReplicatedBytes, last.LeaseExpiries)
	}
	cp := engine.ControlPlane()
	cs := cp.Stats()
	fmt.Printf("ctrl: shards=%d epoch=%d down=%v appends=%d journal=%dB snapshots=%d replays=%d crashes=%d recoveries=%d deferred=%d stale-routes=%d drift=%d/%d gossip-rounds=%d\n",
		cp.NumShards(), engine.Coordinator().Epoch(), cp.Down(), cs.Appends, cs.JournalBytes, cs.Snapshots, cs.Replays,
		cs.Crashes, cs.Recoveries, cs.Deferred, cs.StaleRoutes, cs.DriftDropped, cs.DriftAdopted, engine.GossipRounds())
	if *ctrlJournal != "" {
		if err := cp.SaveFile(*ctrlJournal); err != nil {
			fmt.Fprintf(os.Stderr, "ctrl-journal: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ctrl journal written to %s (audit with rmmap-plan -verify)\n", *ctrlJournal)
	}
	if *trace {
		fmt.Println("execution timeline (last request):")
		platform.WriteTrace(os.Stdout, results[len(results)-1].Trace)
	}
	// A failed (non-shed) request means the recovery ladder ran out of
	// rungs — budget exhausted. That is the non-zero exit the CI soak keys
	// off; deadline sheds are the overload layer working as designed.
	if failed > 0 {
		os.Exit(1)
	}
}
