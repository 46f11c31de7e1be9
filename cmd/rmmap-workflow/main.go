// Command rmmap-workflow runs one of the built-in serverless workflows
// under a chosen state-transfer mode and prints the request latency, the
// per-category work breakdown, and the workflow's functional result.
//
// Usage:
//
//	rmmap-workflow [-workflow finra] [-mode rmmap-prefetch] [-small] [-requests 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"rmmap/internal/load"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

func main() {
	name := flag.String("workflow", "finra", "workflow: finra, ml-training, ml-prediction, wordcount")
	modeName := flag.String("mode", "rmmap-prefetch",
		"transfer mode: messaging, pocket, drtm, rmmap, rmmap-prefetch (or any name platform.ParseMode accepts)")
	small := flag.Bool("small", false, "use the small (test-scale) configuration")
	requests := flag.Int("requests", 1, "requests to run back to back (warm containers)")
	trace := flag.Bool("trace", false, "print the per-invocation execution timeline")
	tcp := flag.Bool("tcp", false, "connect the cluster's machines over real loopback TCP sockets")
	flag.Parse()

	mode, err := platform.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wf, err := load.Workflow(*name, *small)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := platform.DefaultClusterConfig()
	cfg.AllTCP = *tcp
	engine, err := platform.NewEngine(wf, mode, platform.Options{Trace: *trace}, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		os.Exit(1)
	}
	defer engine.Cluster.Close()
	if *tcp {
		fmt.Printf("cluster: %d machines over real TCP sockets\n", cfg.Machines)
	}
	for r := 0; r < *requests; r++ {
		res, err := engine.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "request %d failed: %v\n", r, err)
			os.Exit(1)
		}
		fmt.Printf("request %d: latency %v (mode %v)\n", r, res.Latency, mode)
		fmt.Printf("  result: %+v\n", res.Output)
		fmt.Printf("  total work: %v  transfer: %v (%.1f%%)\n",
			res.Meter.Total(), res.Meter.TransferTotal(),
			100*float64(res.Meter.TransferTotal())/float64(res.Meter.Total()))
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		var fns []string
		for fn := range res.PerFunction {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		fmt.Fprintln(tw, "  function\twork\tserdes\tregister+map\tfault\tnetwork+storage")
		for _, fn := range fns {
			m := res.PerFunction[fn]
			fmt.Fprintf(tw, "  %s\t%v\t%v\t%v\t%v\t%v\n", fn, m.Total(), m.SerTotal(),
				m.Get(simtime.CatRegister)+m.Get(simtime.CatMap), m.Get(simtime.CatFault),
				m.Get(simtime.CatNetwork)+m.Get(simtime.CatStorage))
		}
		tw.Flush()
		if *trace {
			fmt.Println("  execution timeline:")
			platform.WriteTrace(os.Stdout, res.Trace)
		}
	}
}
