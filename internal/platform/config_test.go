package platform

import (
	"strings"
	"testing"

	"rmmap/internal/faults"
	"rmmap/internal/rdma"
)

// TestNewEngineValidatesClusterConfig: NewEngine is the only way to a
// cluster, so its one validation pass must reject every config that
// would assemble a cluster that cannot run a request — before anything
// is built. A zero-pod engine used to accept submissions and drop them.
func TestNewEngineValidatesClusterConfig(t *testing.T) {
	twoRacks, err := rdma.NewTopology([]int{0, 0, 1, 1}, rdma.LinkSpec{}, rdma.LinkSpec{})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Seed: 1}
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
		want string
	}{
		{"no machines", ClusterConfig{Machines: 0, Pods: 4}, "at least 1 machine, got 0"},
		{"negative machines", ClusterConfig{Machines: -2, Pods: 4}, "at least 1 machine, got -2"},
		{"no pods", ClusterConfig{Machines: 2, Pods: 0}, "at least 1 pod, got 0"},
		{"chaos without pods", ClusterConfig{Machines: 4, Pods: 0, Chaos: &plan}, "at least 1 pod, got 0"},
		{"topology mismatch", ClusterConfig{Machines: 3, Pods: 6, Topo: twoRacks},
			"topology covers 4 machines, cluster has 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(pipelineWorkflow(10), ModeRMMAP, Options{}, tc.cfg)
			if err == nil {
				e.Cluster.Close()
				t.Fatalf("NewEngine(%+v) succeeded, want error containing %q", tc.cfg, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewEngine error = %q, want it to contain %q", err, tc.want)
			}
		})
	}
	// The matching topology is accepted.
	e, err := NewEngine(pipelineWorkflow(10), ModeRMMAP, Options{},
		ClusterConfig{Machines: 4, Pods: 4, Topo: twoRacks})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestParseMode: every canonical name round-trips, every spelling a CLI
// has accepted resolves, and an unknown name lists the known ones.
func TestParseMode(t *testing.T) {
	for _, m := range AllModes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for in, want := range map[string]Mode{
		"messaging":       ModeMessaging,
		"pocket":          ModeStoragePocket,
		"storage-pocket":  ModeStoragePocket,
		"rdma":            ModeStorageDrTM,
		"drtm":            ModeStorageDrTM,
		"storage-rdma":    ModeStorageDrTM,
		"storage-drtm":    ModeStorageDrTM,
		"rmmap":           ModeRMMAP,
		"prefetch":        ModeRMMAPPrefetch,
		"rmmap-prefetch":  ModeRMMAPPrefetch,
		"rmmap(prefetch)": ModeRMMAPPrefetch,
		"RMMAP-Prefetch":  ModeRMMAPPrefetch,
	} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseMode("carrier-pigeon")
	if err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
	for _, m := range AllModes() {
		if !strings.Contains(err.Error(), m.String()) {
			t.Errorf("error %q does not list %q", err, m.String())
		}
	}
	if !strings.Contains(err.Error(), "rmmap-prefetch") {
		t.Errorf("error %q does not list the aliases", err)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeMessaging:     "messaging",
		ModeStoragePocket: "storage(pocket)",
		ModeStorageDrTM:   "storage(rdma)",
		ModeRMMAP:         "rmmap",
		ModeRMMAPPrefetch: "rmmap(prefetch)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if !ModeRMMAP.IsRMMAP() || !ModeRMMAPPrefetch.IsRMMAP() || ModeMessaging.IsRMMAP() {
		t.Error("IsRMMAP wrong")
	}
	if len(AllModes()) != 5 {
		t.Errorf("AllModes = %d", len(AllModes()))
	}
	if Mode(99).String() != "mode(?)" {
		t.Error("unknown mode string")
	}
}
