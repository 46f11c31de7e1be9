package bench

import (
	"encoding/json"
	"io"

	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

// Fig14Row is one (workflow, mode) cell of the machine-readable Fig 14
// report: end-to-end latency plus the fabric and remote-page-cache
// counters behind it.
type Fig14Row struct {
	Workflow string `json:"workflow"`
	Mode     string `json:"mode"`
	// Topology is the cluster shape the cell ran on: "flat" for the classic
	// single-rack cluster, otherwise the recipe or topology-file name
	// selected with rmmap-bench -topology.
	Topology            string  `json:"topology"`
	LatencyNs           int64   `json:"latency_ns"`
	FabricOneSidedReads int     `json:"fabric_one_sided_reads"`
	FabricBatches       int     `json:"fabric_doorbell_batches"`
	FabricBatchPages    int     `json:"fabric_batch_pages"`
	FabricBytesRead     int64   `json:"fabric_bytes_read"`
	CacheHits           int64   `json:"cache_hits"`
	CacheMisses         int64   `json:"cache_misses"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
	ReadaheadPages      int64   `json:"readahead_pages"`
	// BreakdownNs is the run's total virtual time per simtime category
	// (compute, serialize, fault, …) — the per-category cost attribution
	// behind the latency number. Keys are canonical category names;
	// encoding/json sorts them, so output is deterministic.
	BreakdownNs map[string]int64 `json:"simtime_breakdown_ns"`
}

// Fig14Report is what `rmmap-bench -json` writes to BENCH_fig14.json.
// Failover is the abl-failover recovery comparison (failover vs.
// re-execution vs. degradation) over the same workflows.
type Fig14Report struct {
	Scale    float64       `json:"scale"`
	Rows     []Fig14Row    `json:"rows"`
	Failover []FailoverRow `json:"failover,omitempty"`
	// Topology is the topology-cliff section: the same pinned fan-out
	// placed intra- versus cross-rack on each recipe (abl-topology).
	Topology []TopologyRow `json:"topology_cliff,omitempty"`
	// OpenLoop is the parallel-engine worker scaling section: the open-loop
	// bench at Workers ∈ {1, 8}. Virtual-time fields are seeded and
	// deterministic; wall_clock_ms and speedup depend on the host.
	OpenLoop *OpenLoopReport `json:"openloop,omitempty"`
	// CtrlThroughput is the sharded-control-plane metadata headline: the
	// wall-clock register/release churn rate at shard counts {1, 16}
	// (DESIGN.md §15). Wall-clock fields are machine-dependent.
	CtrlThroughput *CtrlRateReport `json:"ctrl_throughput,omitempty"`
}

// CollectFig14 reruns the Fig 14 grid (every evaluated workflow × every
// transfer mode) on fresh clusters of rc's topology, capturing fabric and
// cache counters alongside latency.
func CollectFig14(rc RunConfig) (Fig14Report, error) {
	rep := Fig14Report{Scale: rc.Scale}
	flat := platform.DefaultClusterConfig()
	for _, wfb := range Workflows(rc.Scale) {
		for _, mode := range platform.AllModes() {
			cfg, topoName, err := platformbuilder.Resolve(rc.Topology, flat.Machines, flat.Pods)
			if err != nil {
				return rep, err
			}
			e, err := platform.NewEngine(wfb.Build(), mode, rc.Options(), cfg)
			if err != nil {
				return rep, err
			}
			cl := e.Cluster
			res, err := e.Run()
			if err != nil {
				cl.Close()
				return rep, err
			}
			reads, batches, _, bytesRead := cl.Fabric.Stats()
			breakdown := make(map[string]int64)
			res.Meter.Each(func(c simtime.Category, d simtime.Duration) {
				breakdown[c.String()] = int64(d)
			})
			rep.Rows = append(rep.Rows, Fig14Row{
				Workflow:            wfb.Name,
				Mode:                mode.String(),
				Topology:            topoName,
				LatencyNs:           int64(res.Latency),
				FabricOneSidedReads: reads,
				FabricBatches:       batches,
				FabricBatchPages:    cl.Fabric.BatchPages(),
				FabricBytesRead:     bytesRead,
				CacheHits:           res.Cache.Hits,
				CacheMisses:         res.Cache.Misses,
				CacheHitRate:        res.Cache.HitRate(),
				ReadaheadPages:      res.Cache.ReadaheadPages,
				BreakdownNs:         breakdown,
			})
			cl.Close()
		}
	}
	rep.Failover = CollectFailover(rc)
	topoRows, err := CollectTopology(rc)
	if err != nil {
		return rep, err
	}
	rep.Topology = topoRows
	ol, err := CollectOpenLoop(rc, []int{1, 8})
	if err != nil {
		return rep, err
	}
	rep.OpenLoop = &ol
	cr, err := CollectCtrlRate(rc, []int{1, 16})
	if err != nil {
		return rep, err
	}
	rep.CtrlThroughput = &cr
	return rep, nil
}

// WriteFig14JSON collects the Fig 14 grid and writes it as indented JSON.
func WriteFig14JSON(w io.Writer, rc RunConfig) error {
	rep, err := CollectFig14(rc)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
