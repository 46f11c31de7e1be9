package bench

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

// benchScale keeps the open-loop hot-path benchmarks tractable while still
// producing wide dispatch frontiers (16 predictors per request across the
// 10-machine bench cluster).
const benchScale = 0.25

// BenchmarkOpenLoopFig14 times the open-loop fig14 bench (fixed-rate
// ML-prediction under rmmap(prefetch)) at several worker-pool sizes. One
// iteration is a full load run; compare ns/op across sub-benchmarks to see
// worker scaling on this host:
//
//	go test ./internal/bench -bench OpenLoopFig14 -run '^$'
func BenchmarkOpenLoopFig14(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := runOpenLoopCell(RunConfig{Scale: benchScale}, workers)
				if err != nil {
					b.Fatal(err)
				}
				if errs := res.Failed + res.Shed; errs > 0 {
					b.Fatalf("%d failed requests", errs)
				}
			}
		})
	}
}

// TestOpenLoopSpeedupGuard is the benchmark regression guard behind the CI
// "parallel speedup" step: with RMMAP_SPEEDUP_GUARD=1, it runs the
// open-loop fig14 bench sequentially and with 8 workers, requires the
// virtual-time results to match exactly, and — on hosts with enough cores
// for the comparison to mean anything — fails unless the 8-worker run is at
// least 2.5× faster in wall-clock time (raised from 2× after the
// zero-allocation fault path and sharded frame/cache locks removed the
// cross-worker serialization that used to cap scaling). Run it alone,
// without -race (the race detector's ~10× slowdown swamps the timing):
//
//	RMMAP_SPEEDUP_GUARD=1 go test ./internal/bench -run OpenLoopSpeedupGuard -v
func TestOpenLoopSpeedupGuard(t *testing.T) {
	if os.Getenv("RMMAP_SPEEDUP_GUARD") == "" {
		t.Skip("set RMMAP_SPEEDUP_GUARD=1 to run the wall-clock speedup guard")
	}
	rep, err := CollectOpenLoop(RunConfig{Scale: 1.0}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	seq, par := rep.Rows[0], rep.Rows[1]
	t.Logf("sequential: %.0f ms, 8 workers: %.0f ms (%.2fx), completed=%d p50=%dns",
		seq.WallMs, par.WallMs, par.Speedup, par.Completed, par.P50Ns)
	if fr := rep.FaultRate; fr != nil {
		t.Logf("fault rate: %.0f faults/s aggregate, %.0f faults/s/core (%d workers, %d cores)",
			fr.FaultsPerSec, fr.FaultsPerSecCore, fr.Workers, fr.Cores)
	}
	if !par.VirtualMatch {
		t.Fatalf("virtual-time results diverged between workers=1 and workers=8")
	}
	if par.Completed == 0 || par.Errors > 0 {
		t.Fatalf("parallel run unhealthy: completed=%d errors=%d", par.Completed, par.Errors)
	}
	// A wall-clock speedup needs physical cores to run the 8 worker
	// goroutines on; below 8 the 2.5× bar is unreachable by construction.
	if n := runtime.NumCPU(); n < 8 {
		t.Skipf("host has %d CPUs; the 2.5x wall-clock bar needs >= 8 (virtual-time match verified)", n)
	}
	if par.Speedup < 2.5 {
		t.Fatalf("8-worker open-loop run is only %.2fx faster than sequential (want >= 2.5x): %0.f ms vs %.0f ms",
			par.Speedup, par.WallMs, seq.WallMs)
	}
}

// TestCollectFaultRate sanity-checks the faults/sec-per-core harness: the
// fault count is exact (readahead 1 makes every page install one demand
// fault) and the rates are positive. The absolute numbers are
// machine-dependent; the allocation guard over the same path lives in
// BenchmarkFaultPath (internal/kernel).
func TestCollectFaultRate(t *testing.T) {
	fr, err := CollectFaultRate(RunConfig{Scale: 256.0 / 4096}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Faults != 4*256 {
		t.Errorf("Faults = %d, want %d", fr.Faults, 4*256)
	}
	if fr.FaultsPerSec <= 0 || fr.FaultsPerSecCore <= 0 {
		t.Errorf("rates not positive: %+v", fr)
	}
	if fr.Cores < 1 || fr.Cores > 4 {
		t.Errorf("Cores = %d, want within [1, workers]", fr.Cores)
	}
	if fr.FaultsPerSecCore*float64(fr.Cores) != fr.FaultsPerSec {
		t.Errorf("per-core rate %.0f × %d cores ≠ aggregate %.0f",
			fr.FaultsPerSecCore, fr.Cores, fr.FaultsPerSec)
	}
}
