// Command rmmap-plan prints the static virtual-memory plan (§4.2) the
// platform generates for one of the built-in workflows: a disjoint address
// range (and segment layout) per function instance.
//
// With -verify it instead audits a coordinator save file (written by
// rmmap-chaos -ctrl-journal, DESIGN.md §13, §15): each shard's snapshot is
// loaded, its journal tail replayed, and every journaled address-plan slot
// — across ALL shards — checked against the same disjointness rule
// Plan.Validate enforces at issuance. The file is the "RMCSHRD1" save
// container (a single-coordinator plane writes one shard); anything else
// is rejected as corrupt. A violation
// prints the offending slots (naming their shards) and exits non-zero —
// the post-hoc proof that no shard crash/recovery or mis-routed issuance
// ever journaled overlapping address ranges.
//
// Usage:
//
//	rmmap-plan [-workflow finra|ml-training|ml-prediction|wordcount] [-full]
//	rmmap-plan -verify ctrl.save
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"rmmap/internal/ctrl"
	"rmmap/internal/load"
	"rmmap/internal/platform"
)

func main() {
	name := flag.String("workflow", "finra", "workflow: finra, ml-training, ml-prediction, wordcount")
	full := flag.Bool("full", false, "print every instance slot (default: first/last per type)")
	asJSON := flag.Bool("json", false, "emit the plan as JSON (the form stored with the workflow, §4.2)")
	verify := flag.String("verify", "", "audit a coordinator save file (rmmap-chaos -ctrl-journal): replay it and check the journaled slots for overlaps")
	flag.Parse()

	if *verify != "" {
		if code := runVerify(*verify, os.Stdout, os.Stderr); code != 0 {
			os.Exit(code)
		}
		return
	}

	wf, err := load.Workflow(*name, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plan, err := platform.GeneratePlan(wf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plan generation failed: %v\n", err)
		os.Exit(1)
	}
	if err := plan.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "plan invalid: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workflow %q: %d functions, %d instance slots, plan verified disjoint\n\n",
		wf.Name, len(wf.Functions), len(plan.Slots()))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "slot\trange\ttext\theap\tstack")
	lastFn := ""
	slots := plan.Slots()
	for i, id := range slots {
		if !*full {
			nextDiffers := i+1 >= len(slots) || slots[i+1].Function != id.Function
			if id.Function == lastFn && !nextDiffers {
				continue // show first and last instance per type
			}
		}
		lastFn = id.Function
		l, _ := plan.Slot(id)
		fmt.Fprintf(tw, "%s\t[%#x,%#x)\t[%#x,%#x)\t[%#x,%#x)\t[%#x,%#x)\n",
			id, l.Start, l.End, l.TextStart, l.TextEnd, l.HeapStart, l.HeapEnd, l.StackStart, l.StackEnd)
	}
	tw.Flush()
}

// runVerify audits a coordinator save file: per-shard
// summary, then the cross-shard disjointness check over the union of
// every shard's journaled slots. Returns the process exit code: 0 clean,
// 1 unreadable, 2 plan invalid.
func runVerify(path string, stdout, stderr io.Writer) int {
	states, err := ctrl.LoadShardStatesFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "load %s: %v\n", path, err)
		return 1
	}
	var all []shardSlot
	for _, ss := range states {
		prefix := path
		if len(states) > 1 {
			prefix = fmt.Sprintf("%s shard %d", path, ss.Shard)
		}
		fmt.Fprintf(stdout, "%s: epoch %d, %d slots, %d live registrations, %d placements (%d journal records replayed)\n",
			prefix, ss.State.Epoch, len(ss.State.Slots), len(ss.State.Regs), len(ss.State.Places), ss.Replayed)
		for _, sl := range ss.State.Slots {
			all = append(all, shardSlot{slot: sl, shard: ss.Shard, sharded: len(states) > 1})
		}
	}
	if err := verifyShardSlots(all); err != nil {
		fmt.Fprintf(stderr, "plan invalid: %v\n", err)
		return 2
	}
	if len(states) > 1 {
		fmt.Fprintf(stdout, "plan verified: %d journaled slots disjoint across %d shards\n", len(all), len(states))
	} else {
		fmt.Fprintf(stdout, "plan verified: %d journaled slots disjoint\n", len(all))
	}
	return 0
}

// shardSlot is one journaled slot tagged with its owning shard; sharded
// selects the "(shard N)" error rendering for multi-shard saves.
type shardSlot struct {
	slot    ctrl.PlanSlot
	shard   int
	sharded bool
}

func (s shardSlot) String() string {
	if s.sharded {
		return fmt.Sprintf("%s#%d (shard %d)", s.slot.Fn, s.slot.Inst, s.shard)
	}
	return fmt.Sprintf("%s#%d", s.slot.Fn, s.slot.Inst)
}

// verifySlots applies Plan.Validate's rules to one coordinator's journaled
// slots: every range must be well-formed and pairwise disjoint. The
// returned error names the offending slot as fn#inst.
func verifySlots(slots []ctrl.PlanSlot) error {
	tagged := make([]shardSlot, len(slots))
	for i, sl := range slots {
		tagged[i] = shardSlot{slot: sl}
	}
	return verifyShardSlots(tagged)
}

// verifyShardSlots is the cross-shard audit: the union of every shard's
// slots must be pairwise disjoint — shard journals partition the plan,
// they never partition the address space, so an overlap between two
// shards is as fatal as one within a shard. Errors name both slots (and,
// on sharded saves, both shards).
func verifyShardSlots(slots []shardSlot) error {
	sorted := append([]shardSlot(nil), slots...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].slot.Start != sorted[j].slot.Start {
			return sorted[i].slot.Start < sorted[j].slot.Start
		}
		return sorted[i].slot.End < sorted[j].slot.End
	})
	for i, s := range sorted {
		if s.slot.End <= s.slot.Start {
			return fmt.Errorf("slot %s: empty or inverted range [%#x,%#x)", s, s.slot.Start, s.slot.End)
		}
		if i > 0 {
			prev := sorted[i-1]
			if s.slot.Start < prev.slot.End {
				return fmt.Errorf("slot %s [%#x,%#x) overlaps %s [%#x,%#x)",
					s, s.slot.Start, s.slot.End, prev, prev.slot.Start, prev.slot.End)
			}
		}
	}
	return nil
}
