package bench

import (
	"bytes"
	"strings"
	"testing"

	"rmmap/internal/simtime"
)

func TestRegistryComplete(t *testing.T) {
	// Every figure of §5 plus §2.3's motivation figures and the four
	// ablations must be registered.
	want := []string{
		"fig3", "fig5", "fig11a", "fig11b", "fig12", "fig13a", "fig13b",
		"fig13c", "fig13d", "fig14", "fig15", "fig16a", "fig16b",
		"abl-prefetch", "abl-batch", "abl-conn", "abl-scope",
		"abl-fork", "abl-forward", "abl-adaptive", "abl-compress", "abl-arrow",
		"abl-fanout", "abl-failover", "abl-topology", "abl-ctrl",
	}
	for _, id := range want {
		e, ok := Find(id)
		if !ok {
			t.Errorf("experiment %q missing", id)
			continue
		}
		if e.Title == "" || e.Expect == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete: %+v", id, e)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if len(IDs()) != len(want) {
		t.Errorf("IDs() returned %d", len(IDs()))
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("fig99"); ok {
		t.Error("found unregistered experiment")
	}
}

// TestExperimentsRunTiny executes each experiment at a tiny scale and
// checks it produces a non-empty table without error. fig12 is covered at
// a slightly larger granularity in the benchmarks (it needs enough
// requests to be meaningful) and is skipped under -short.
func TestExperimentsRunTiny(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "fig12" && testing.Short() {
				t.Skip("fig12 runs thousands of requests; skipped under -short")
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, RunConfig{Scale: 0.02}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if strings.Count(out, "\n") < 2 {
				t.Errorf("%s produced almost no output:\n%s", e.ID, out)
			}
		})
	}
}

func TestMicroRigTransferMatchesApproaches(t *testing.T) {
	// A direct check of the Fig 11 rig: same object, five approaches,
	// stage charges land in the right buckets.
	rig, err := newMicroRig(simtime.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	root, err := rig.ProdRT.NewIntList(make([]int64, 500))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := rig.transfer(root, apMessaging)
	if err != nil {
		t.Fatal(err)
	}
	if msg.T == 0 || msg.N == 0 || msg.R == 0 || msg.Wire == 0 {
		t.Errorf("messaging stages: %+v", msg)
	}
	rig2, err := newMicroRig(simtime.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	root2, err := rig2.ProdRT.NewIntList(make([]int64, 500))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := rig2.transfer(root2, apRMMAP)
	if err != nil {
		t.Fatal(err)
	}
	if rm.R != 0 {
		t.Errorf("rmmap reconstructed: %+v", rm)
	}
	if rm.Wire != 0 {
		t.Errorf("rmmap moved wire bytes: %+v", rm)
	}
	if rm.Faults == 0 {
		t.Errorf("rmmap no faults: %+v", rm)
	}
	if rm.E2E() >= msg.E2E() {
		t.Errorf("rmmap (%v) not faster than messaging (%v)", rm.E2E(), msg.E2E())
	}
}

func TestChecksumCoversAllTypes(t *testing.T) {
	rig, err := newMicroRig(simtime.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range microTypes(0.01) {
		root, err := typ.Build(rig.ProdRT)
		if err != nil {
			t.Fatalf("%s: %v", typ.Name, err)
		}
		if err := checksum(root); err != nil {
			t.Errorf("checksum(%s): %v", typ.Name, err)
		}
	}
}
