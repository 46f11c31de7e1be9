package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"rmmap/internal/ctrl"
	"rmmap/internal/simtime"
)

// The metadata-throughput headline (DESIGN.md §15): a wall-clock harness
// that hammers the control plane directly — register/release churn and
// address-plan issuance against a large live directory — at shard counts
// {1, N}. The sharded win is algorithmic, not just parallel: snapshot
// compaction re-encodes a shard's full state every SnapshotEvery journal
// bytes, so a single shard holding K live registrations pays O(K) per
// snapshot while N shards each pay O(K/N) — and cross the byte trigger
// N× less often per appended record. On a single-core host the speedup
// survives; extra cores only widen it (each worker owns disjoint shards,
// so the parallel phase is data-race-free by partition).

// CtrlRateRow is one shard count's wall-clock measurement.
type CtrlRateRow struct {
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Registrations is the register/release churn pairs journaled.
	Registrations int     `json:"registrations"`
	Plans         int     `json:"plans"`
	WallMs        float64 `json:"wall_clock_ms"`
	RegsPerSec    float64 `json:"registrations_per_sec"`
	PlansPerSec   float64 `json:"plans_per_sec"`
	// Snapshots/SnapshotBytes expose the compaction work that separates
	// the shard counts; JournalBytes is near-identical across them.
	Snapshots     int   `json:"snapshots"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	JournalBytes  int64 `json:"journal_bytes"`
}

// CtrlRateReport is the ctrl_throughput section of BENCH_fig14.json.
// All fields are machine-dependent (wall clock).
type CtrlRateReport struct {
	// LiveRegs is the standing directory size the churn runs against.
	LiveRegs int           `json:"live_registrations"`
	Rows     []CtrlRateRow `json:"rows"`
	// Speedup is best sharded RegsPerSec ÷ single-shard RegsPerSec (0 if
	// the counts don't include both).
	Speedup float64 `json:"speedup"`
}

// Calibrated harness sizes (scaled by -scale).
const (
	ctrlRateLive  = 40000 // standing live registrations
	ctrlRateChurn = 30000 // timed register+release pairs
	ctrlRatePlans = 5000  // timed address-plan slot issuances
)

// ctrlMix is SplitMix64's finalizer — the same scrambling the engine
// applies to registration keys, so the harness keys spread like real ones.
func ctrlMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CollectCtrlRate measures wall-clock control-plane throughput at each
// shard count: seed a live directory (untimed), then time register/release
// churn and plan issuance. Worker w owns shards s with s%W == w, so
// parallel workers touch disjoint shard journals.
func CollectCtrlRate(rc RunConfig, shardCounts []int) (CtrlRateReport, error) {
	live := scaleInt(ctrlRateLive, rc.Scale)
	churn := scaleInt(ctrlRateChurn, rc.Scale)
	plans := scaleInt(ctrlRatePlans, rc.Scale)
	rep := CtrlRateReport{LiveRegs: live}

	var single, best float64
	for _, shards := range shardCounts {
		row, err := ctrlRateCell(shards, live, churn, plans)
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, row)
		if shards == 1 {
			single = row.RegsPerSec
		} else if row.RegsPerSec > best {
			best = row.RegsPerSec
		}
	}
	if single > 0 && best > 0 {
		rep.Speedup = best / single
	}
	return rep, nil
}

func ctrlRateCell(shards, live, churn, plans int) (CtrlRateRow, error) {
	workers := min(shards, runtime.GOMAXPROCS(0))
	row := CtrlRateRow{Shards: shards, Workers: workers, Registrations: churn, Plans: plans}

	plane := ctrl.NewSharded(simtime.DefaultCostModel(), shards)
	if err := plane.Start(); err != nil {
		return row, err
	}

	// Pre-bucket every ref by owning shard (untimed routing; the timed
	// phases exercise journaling and compaction, not the ring).
	seedRefs := make([][]ctrl.RegRef, shards)
	churnRefs := make([][]ctrl.RegRef, shards)
	for i := 0; i < live; i++ {
		ref := ctrl.RegRef{ID: uint64(i), Key: ctrlMix(uint64(i))}
		s := plane.RouteRef(ref)
		seedRefs[s] = append(seedRefs[s], ref)
	}
	for i := 0; i < churn; i++ {
		ref := ctrl.RegRef{ID: uint64(live + i), Key: ctrlMix(uint64(live + i))}
		s := plane.RouteRef(ref)
		churnRefs[s] = append(churnRefs[s], ref)
	}
	planShards := make([][]int, shards)
	for i := 0; i < plans; i++ {
		s := plane.RouteSlot("ctrl-rate", i)
		planShards[s] = append(planShards[s], i)
	}

	// Seed the standing directory (untimed).
	for s := 0; s < shards; s++ {
		sh := plane.Shard(s)
		for _, ref := range seedRefs[s] {
			if err := sh.Register(ref, int(ref.ID)%4, nil); err != nil {
				return row, err
			}
		}
	}

	// Timed: churn pairs then plan issuance, workers over disjoint shards.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < shards; s += workers {
				sh := plane.Shard(s)
				for _, ref := range churnRefs[s] {
					if err := sh.Register(ref, int(ref.ID)%4, nil); err != nil {
						errs[w] = err
						return
					}
					if _, _, err := sh.Release(ref); err != nil {
						errs[w] = err
						return
					}
				}
				for _, inst := range planShards[s] {
					base := uint64(inst) << 21
					if err := sh.IssueSlot("ctrl-rate", inst, base, base+1<<21); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return row, fmt.Errorf("ctrl-rate worker: %w", err)
		}
	}

	st := plane.Stats()
	row.WallMs = float64(wall.Microseconds()) / 1e3
	row.Snapshots = st.Snapshots
	row.SnapshotBytes = st.SnapshotBytes
	row.JournalBytes = st.JournalBytes
	if secs := wall.Seconds(); secs > 0 {
		row.RegsPerSec = float64(churn) / secs
		row.PlansPerSec = float64(plans) / secs
	}
	if got := plane.Live(); got != live {
		return row, fmt.Errorf("ctrl-rate: %d live registrations after churn, want %d", got, live)
	}
	return row, nil
}

func init() {
	register(Experiment{
		ID:    "abl-ctrl",
		Title: "Sharded control plane: metadata throughput vs. shard count",
		Expect: "registrations/s grows with shard count — snapshot compaction " +
			"is O(live/N) per shard, so 16 shards clear >= 3x the single-shard rate",
		Run: func(w io.Writer, rc RunConfig) error {
			rep, err := CollectCtrlRate(rc, []int{1, 4, 16})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "live registrations: %d\n\n", rep.LiveRegs)
			t := newTable(w, "shards", "workers", "regs/s", "plans/s", "snapshots", "snap MB", "wall ms")
			for _, r := range rep.Rows {
				t.row(r.Shards, r.Workers,
					fmt.Sprintf("%.0f", r.RegsPerSec),
					fmt.Sprintf("%.0f", r.PlansPerSec),
					r.Snapshots,
					fmt.Sprintf("%.2f", float64(r.SnapshotBytes)/(1<<20)),
					fmt.Sprintf("%.1f", r.WallMs))
			}
			t.flush()
			fmt.Fprintf(w, "\nbest-sharded vs single-shard: %.2fx\n", rep.Speedup)
			return nil
		},
	})
}
