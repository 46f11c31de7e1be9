package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// The faults/sec-per-core headline: a wall-clock harness that hammers the
// fault → page-cache → fabric-read hot path directly, without the engine's
// scheduling around it. W consumer machines demand-fault a shared
// producer's registered range through fresh rmap'd address spaces; every
// counted event is one page fault handled end-to-end (readahead is pinned
// to 1 and the cache budget forces eviction churn, so each fault is the
// full miss path — fabric read, frame fill, cache insert + evict, shared
// install). The per-core rate is what the zero-allocation/sharded-lock
// work optimizes; BenchmarkFaultPath/miss is the same path as ns/op.

// FaultRateReport is the wall-clock fault-throughput headline in the
// openloop section of BENCH_fig14.json. All fields are machine-dependent.
type FaultRateReport struct {
	Workers int `json:"workers"`
	// Cores is the parallelism the rate is normalized by:
	// min(workers, GOMAXPROCS).
	Cores  int     `json:"cores"`
	Faults int64   `json:"faults"`
	WallMs float64 `json:"wall_clock_ms"`
	// FaultsPerSec is the aggregate wall-clock fault rate.
	FaultsPerSec float64 `json:"faults_per_sec"`
	// FaultsPerSecCore is the headline: aggregate rate divided by Cores.
	FaultsPerSecCore float64 `json:"faults_per_sec_per_core"`
}

const (
	faultRateRangeStart = uint64(0x10_0000)
	faultRateRangePages = 512
)

// CollectFaultRate measures wall-clock fault throughput with the given
// number of consumer machines, each handling 4096 faults (scaled by
// rc.Scale) against one shared producer.
func CollectFaultRate(rc RunConfig, workers int) (FaultRateReport, error) {
	pagesPerWorker := scaleInt(4096, rc.Scale)
	rep := FaultRateReport{
		Workers: workers,
		Cores:   min(workers, runtime.GOMAXPROCS(0)),
	}
	cm := simtime.DefaultCostModel()
	fabric := rdma.NewSimFabric(cm)
	producer := memsim.NewMachine(0)
	fabric.Attach(producer)
	pk := kernel.New(producer, rdma.NewNIC(0, fabric), cm)
	pk.ServeRPC(fabric)

	end := faultRateRangeStart + faultRateRangePages*memsim.PageSize
	pas := memsim.NewAddressSpace(producer, cm)
	pas.SetMeter(simtime.NewMeter())
	if err := pk.SetSegment(pas, memsim.SegHeap, faultRateRangeStart, end); err != nil {
		return rep, err
	}
	pattern := []byte("fault-rate-harness")
	for a := faultRateRangeStart; a < end; a += memsim.PageSize {
		if err := pas.Write(a, pattern); err != nil {
			return rep, err
		}
	}
	meta, err := pk.RegisterMem(pas, 7, 42, faultRateRangeStart, end)
	if err != nil {
		return rep, err
	}

	machines := make([]*memsim.Machine, workers)
	kernels := make([]*kernel.Kernel, workers)
	for i := 0; i < workers; i++ {
		m := memsim.NewMachine(memsim.MachineID(i + 1))
		fabric.Attach(m)
		k := kernel.New(m, rdma.NewNIC(memsim.MachineID(i+1), fabric), cm)
		k.ServeRPC(fabric)
		// A budget far below the 512-page range keeps the cache in
		// eviction churn; readahead 1 makes every install a demand fault.
		k.EnablePageCache(8 * memsim.PageSize)
		k.SetReadahead(1)
		machines[i] = m
		kernels[i] = k
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var probe [1]byte
			done := 0
			for done < pagesPerWorker {
				as := memsim.NewAddressSpace(machines[i], cm)
				as.SetMeter(simtime.NewMeter())
				mp, err := kernels[i].Rmap(as, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
				if err != nil {
					errs[i] = err
					return
				}
				_ = mp
				for a := faultRateRangeStart; a < end && done < pagesPerWorker; a += memsim.PageSize {
					if err := as.Read(a, probe[:]); err != nil {
						errs[i] = err
						return
					}
					done++
				}
				as.Release()
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return rep, fmt.Errorf("fault-rate worker: %w", err)
		}
	}
	rep.Faults = int64(workers) * int64(pagesPerWorker)
	rep.WallMs = float64(wall.Microseconds()) / 1e3
	secs := wall.Seconds()
	if secs > 0 {
		rep.FaultsPerSec = float64(rep.Faults) / secs
		rep.FaultsPerSecCore = rep.FaultsPerSec / float64(rep.Cores)
	}
	return rep, nil
}
