package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
)

// collectTopologyAt runs the topology-cliff grid at one worker count and
// returns its serialized rows.
func collectTopologyAt(t *testing.T, workers int) []byte {
	t.Helper()
	rows, err := CollectTopology(RunConfig{Scale: goldenScale, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTopologyCliff pins the abl-topology acceptance criteria: cross-rack
// placement on the spine-leaf recipe costs at least 2x the intra-rack
// datapath, rack-local placement eliminates cross-rack traffic, and the
// whole grid is byte-identical at any worker count.
func TestTopologyCliff(t *testing.T) {
	ref := collectTopologyAt(t, 1)
	if got := collectTopologyAt(t, 8); !bytes.Equal(ref, got) {
		t.Errorf("topology rows differ between workers=1 and workers=8\n--- workers=1:\n%s\n--- workers=8:\n%s", ref, got)
	}
	var rows []TopologyRow
	if err := json.Unmarshal(ref, &rows); err != nil {
		t.Fatal(err)
	}
	if ratio := TopologyCliff(rows); ratio < 2 {
		t.Errorf("spine-leaf cross/intra datapath ratio = %.2f, want >= 2", ratio)
	}
	byPlacement := make(map[string]TopologyRow)
	for _, r := range rows {
		if r.Topology == "spine-leaf" {
			byPlacement[r.Placement] = r
		}
	}
	cross, spread, local := byPlacement["cross-rack"], byPlacement["spread"], byPlacement["rack-local"]
	if cross.CrossRackOps == 0 || cross.SpineNs == 0 {
		t.Errorf("cross-rack leg recorded no spine traffic: %+v", cross)
	}
	if spread.CrossRackOps == 0 {
		t.Errorf("spread placement crossed no racks — the placement-policy comparison is vacuous")
	}
	if local.CrossRackOps != 0 {
		t.Errorf("rack-local placement still crossed racks %d times", local.CrossRackOps)
	}
	if local.DatapathNs >= spread.DatapathNs {
		t.Errorf("rack-local datapath %d not below spread %d", local.DatapathNs, spread.DatapathNs)
	}
}

// runFlatCell runs one WordCount fig14 cell on a cluster assembled from
// cfg and serializes its artifacts.
func runFlatCell(t *testing.T, cfg platform.ClusterConfig, workers int) runArtifacts {
	t.Helper()
	var builder WorkflowBuilder
	for _, w := range Workflows(goldenScale) {
		if w.Name == "WordCount" {
			builder = w
		}
	}
	reg := obs.NewRegistry()
	e, err := platform.NewEngine(builder.Build(), platform.ModeRMMAPPrefetch,
		platform.Options{Trace: true, Obs: reg, Workers: workers}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return runArtifacts{
		spans:   spanJSONL(t, res.Trace),
		metrics: metrics.Bytes(),
		row:     fig14RowBytes(t, builder.Name, platform.ModeRMMAPPrefetch, e, res),
	}
}

// TestFlatBuilderEquivalence proves the flat-equivalence acceptance
// criterion: a one-rack platformbuilder build must reproduce the classic
// flat cluster config's run byte for byte — spans, metrics, and fig14
// rows — at Workers 1 and 8.
func TestFlatBuilderEquivalence(t *testing.T) {
	classicCfg := platform.DefaultClusterConfig()
	for _, workers := range []int{1, 8} {
		classic := runFlatCell(t, classicCfg, workers)
		built, _, err := platformbuilder.Resolve("", classicCfg.Machines, classicCfg.Pods)
		if err != nil {
			t.Fatal(err)
		}
		fromBuilder := runFlatCell(t, built, workers)
		if !bytes.Equal(classic.spans, fromBuilder.spans) {
			t.Errorf("workers=%d: builder spans differ from classic cluster", workers)
		}
		if !bytes.Equal(classic.metrics, fromBuilder.metrics) {
			t.Errorf("workers=%d: builder metrics differ from classic cluster\n--- classic:\n%s\n--- builder:\n%s",
				workers, classic.metrics, fromBuilder.metrics)
		}
		if !bytes.Equal(classic.row, fromBuilder.row) {
			t.Errorf("workers=%d: builder fig14 row differs from classic cluster\n--- classic:\n%s\n--- builder:\n%s",
				workers, classic.row, fromBuilder.row)
		}
	}
}

// runTopologyDeterminismCell runs a pinned cross-rack fan-out on the
// straggler recipe (two racks, machine 3 a 3x straggler) with shared-link
// contention in play, at one worker count.
func runTopologyDeterminismCell(t *testing.T, workers int) runArtifacts {
	t.Helper()
	cfg, _, err := platformbuilder.Resolve("straggler", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := platform.NewEngine(topoFanout(0, 3, 8, scaleInt(65536, goldenScale)),
		platform.ModeRMMAP, platform.Options{Trace: true, Obs: reg, Workers: workers}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := e.Cluster
	defer cl.Close()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Topo.CrossRackOps() == 0 {
		t.Fatal("cross-rack fan-out recorded no cross-rack operations")
	}
	var metrics bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return runArtifacts{
		spans:   spanJSONL(t, res.Trace),
		metrics: metrics.Bytes(),
		row:     fig14RowBytes(t, "fanout-straggler", platform.ModeRMMAP, e, res),
	}
}

// TestDifferentialDeterminismTopology is the multi-rack leg of the suite:
// a cross-rack fan-out onto a straggler machine exercises hop charging,
// straggler stretching, and the deferred link-occupancy journal (queueing
// waits replayed in canonical commit order). Artifacts must stay
// byte-identical at every worker count.
func TestDifferentialDeterminismTopology(t *testing.T) {
	ref := runTopologyDeterminismCell(t, 1)
	if len(ref.spans) == 0 {
		t.Fatal("reference run produced no spans")
	}
	for _, w := range diffWorkers[1:] {
		diffArtifacts(t, "fanout-straggler", ref, runTopologyDeterminismCell(t, w), w)
	}
}
