package bench

import (
	"io"
	"os"
	"testing"
)

// Small-scale smoke: the harness runs, keeps the live set intact, and
// reports sane rows at both shard counts.
func TestCollectCtrlRateSmoke(t *testing.T) {
	rep, err := CollectCtrlRate(RunConfig{Scale: 0.02}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.RegsPerSec <= 0 || r.PlansPerSec <= 0 {
			t.Fatalf("shards=%d: zero rate: %+v", r.Shards, r)
		}
		if r.JournalBytes == 0 {
			t.Fatalf("shards=%d: nothing journaled", r.Shards)
		}
	}
	if rep.Rows[0].Shards != 1 || rep.Rows[1].Shards != 4 {
		t.Fatalf("row order: %+v", rep.Rows)
	}
	if rep.Speedup <= 0 {
		t.Fatalf("speedup = %v, want > 0 with shard counts {1,4}", rep.Speedup)
	}
}

func TestCtrlRateExperimentRegistered(t *testing.T) {
	e, ok := Find("abl-ctrl")
	if !ok {
		t.Fatal("abl-ctrl experiment not registered")
	}
	if err := e.Run(io.Discard, RunConfig{Scale: 0.02}); err != nil {
		t.Fatal(err)
	}
}

// TestCtrlThroughputGuard is the CI metadata-throughput guard
// (RMMAP_CTRL_GUARD=1): at full scale, 16 shards must clear >= 3x the
// single-shard registration rate. The margin is algorithmic — snapshot
// compaction cost is O(live/N) per shard and triggers N× less often — so
// it holds on a single-core runner; see DESIGN.md §15.
func TestCtrlThroughputGuard(t *testing.T) {
	if os.Getenv("RMMAP_CTRL_GUARD") == "" {
		t.Skip("set RMMAP_CTRL_GUARD=1 to run the wall-clock throughput guard")
	}
	rep, err := CollectCtrlRate(RunConfig{Scale: 1.0}, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ctrl throughput: %+v", rep)
	if rep.Speedup < 3 {
		t.Fatalf("16-shard regs/s is %.2fx the single-shard rate, want >= 3x (rows: %+v)",
			rep.Speedup, rep.Rows)
	}
}
