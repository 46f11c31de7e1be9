package platformbuilder

import (
	"strings"
	"testing"

	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

func configErr(t *testing.T, b *Builder) string {
	t.Helper()
	_, err := b.Config()
	if err == nil {
		t.Fatal("expected a validation error, got none")
	}
	return err.Error()
}

func TestBuilderValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
		want string
	}{
		{"zero racks", NewBuilder().WithRacks(0), "platformbuilder: zero racks"},
		{"duplicate machine", NewBuilder().WithRacks(1).WithMachine(0, 0).WithMachine(0, 0),
			"platformbuilder: duplicate machine id 0"},
		{"straggler unknown machine", NewBuilder().WithRacks(1).WithMachinesPerRack(2).WithStraggler(9, 2.0),
			"platformbuilder: straggler on unknown machine 9 (2 machines)"},
		{"unconnected rack", NewBuilder().WithRacks(3).WithMachine(0, 0).WithMachine(1, 1),
			"platformbuilder: rack 2 has no machines"},
		{"sparse ids", NewBuilder().WithRacks(1).WithMachine(0, 0).WithMachine(2, 0),
			"platformbuilder: machine ids must be dense 0..1, got 2"},
		{"rack out of range", NewBuilder().WithRacks(1).WithMachine(0, 1),
			"platformbuilder: machine 0 placed in rack 1, only 1 racks"},
		{"fabric unknown rack", NewBuilder().WithRacks(2).WithMachinesPerRack(1).WithFabric(5, rdma.FabricTCP),
			"platformbuilder: fabric on unknown rack 5 (2 racks)"},
		{"bad straggler mult", NewBuilder().WithRacks(1).WithMachinesPerRack(2).WithStraggler(0, 0.5),
			"platformbuilder: straggler multiplier must be ≥ 1, got 0.5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := configErr(t, c.b); got != c.want {
				t.Errorf("error = %q, want %q", got, c.want)
			}
		})
	}
}

func TestFlatBuildHasNoTopology(t *testing.T) {
	for _, arg := range []string{"", "flat"} {
		cfg, name, err := Resolve(arg, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		if name != "flat" {
			t.Errorf("Resolve(%q) name = %q, want flat", arg, name)
		}
		if cfg != (platform.ClusterConfig{Machines: 4, Pods: 8}) {
			t.Errorf("Resolve(%q) = %+v; one-rack builds must compile to the trivial flat config", arg, cfg)
		}
	}
}

func TestRecipes(t *testing.T) {
	want := []string{"flat", "spine-leaf", "spine-leaf-tcp", "straggler", "two-rack"}
	got := Recipes()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Recipes() = %v, want %v", got, want)
	}
	for _, name := range got {
		b, err := Recipe(name, 8)
		if err != nil {
			t.Fatalf("Recipe(%s): %v", name, err)
		}
		if b.Machines() != 8 {
			t.Errorf("%s: machines = %d, want 8", name, b.Machines())
		}
		cfg, err := b.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "flat" {
			if cfg.Topo != nil {
				t.Errorf("flat recipe attached a topology")
			}
			continue
		}
		if cfg.Topo == nil {
			t.Fatalf("%s: no topology", name)
		}
	}
	sl, _ := Recipe("spine-leaf", 8)
	cfg, _ := sl.Config()
	if cfg.Topo.Racks() != 4 {
		t.Errorf("spine-leaf racks = %d, want 4", cfg.Topo.Racks())
	}
	// Contiguous block placement: machines 0,1 in rack 0, 6,7 in rack 3.
	if r := cfg.Topo.RackOf(1); r != 0 {
		t.Errorf("machine 1 in rack %d, want 0", r)
	}
	if r := cfg.Topo.RackOf(7); r != 3 {
		t.Errorf("machine 7 in rack %d, want 3", r)
	}
	if _, err := Recipe("nope", 4); err == nil || !strings.Contains(err.Error(), "unknown recipe") {
		t.Errorf("unknown recipe error = %v", err)
	}
}

// chainWorkflow is a two-stage producer→consumer chain with explicit pins,
// so tests control exactly which link the transfer crosses.
func chainWorkflow(producer, consumer int, elems int) *platform.Workflow {
	return &platform.Workflow{
		Name: "chain",
		Functions: []*platform.FunctionSpec{
			{Name: "produce", Instances: 1, PinMachine: platform.Pin(producer),
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
					vals := make([]int64, elems)
					for i := range vals {
						vals[i] = int64(i)
					}
					return ctx.RT.NewIntList(vals)
				}},
			{Name: "consume", Instances: 1, PinMachine: platform.Pin(consumer),
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
					in := ctx.Inputs[0]
					cnt, err := in.Len()
					if err != nil {
						return objrt.Obj{}, err
					}
					sum := int64(0)
					for i := 0; i < cnt; i++ {
						e, err := in.Index(i)
						if err != nil {
							return objrt.Obj{}, err
						}
						v, err := e.Int()
						if err != nil {
							return objrt.Obj{}, err
						}
						sum += v
					}
					ctx.Report(sum)
					return objrt.Obj{}, nil
				}},
		},
		Edges: []platform.Edge{{From: "produce", To: "consume"}},
	}
}

func runChain(t *testing.T, b *Builder, producer, consumer int) (platform.RunResult, *platform.Cluster) {
	t.Helper()
	cfg, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pods = 2 * cfg.Machines
	e, err := platform.NewEngine(chainWorkflow(producer, consumer, 16384),
		platform.ModeRMMAP, platform.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Cluster.Close)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, e.Cluster
}

func TestCrossRackCostsMoreThanIntraRack(t *testing.T) {
	mk := func() *Builder {
		b, err := Recipe("two-rack", 4)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	intra, _ := runChain(t, mk(), 0, 1)  // both in rack 0
	cross, cl := runChain(t, mk(), 0, 2) // rack 0 → rack 1
	if cl.Topo.CrossRackOps() == 0 {
		t.Fatal("cross-rack run recorded no cross-rack operations")
	}
	if cross.Latency <= intra.Latency {
		t.Errorf("cross-rack latency %v not above intra-rack %v", cross.Latency, intra.Latency)
	}
}

func TestStragglerStretchesLatency(t *testing.T) {
	base, err := Recipe("two-rack", 4)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Recipe("straggler", 4) // same shape, machine 3 is a 3× straggler
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := runChain(t, base, 0, 3)
	strag, _ := runChain(t, slow, 0, 3)
	if strag.Latency <= fast.Latency {
		t.Errorf("straggler latency %v not above baseline %v", strag.Latency, fast.Latency)
	}
}

// TestMixedFabricMatchesSim proves the mixed-fabric claim: putting the
// cross-rack links on real loopback TCP changes the byte transport but not
// one nanosecond of virtual time.
func TestMixedFabricMatchesSim(t *testing.T) {
	sim4, err := Recipe("spine-leaf", 4)
	if err != nil {
		t.Fatal(err)
	}
	tcp4, err := Recipe("spine-leaf-tcp", 4)
	if err != nil {
		t.Fatal(err)
	}
	simRes, _ := runChain(t, sim4, 0, 3)
	tcpRes, tcpCl := runChain(t, tcp4, 0, 3)
	if !tcpCl.Topo.HasTCP() {
		t.Fatal("spine-leaf-tcp cluster reports no TCP links")
	}
	if simRes.Latency != tcpRes.Latency {
		t.Errorf("virtual latency differs across byte transports: sim %v, tcp %v", simRes.Latency, tcpRes.Latency)
	}
}

func TestScaleSinceStretchesOnlyDelta(t *testing.T) {
	m := simtime.NewMeter()
	m.Charge(simtime.CatCompute, 100)
	base := m.Mark()
	m.Charge(simtime.CatFault, 50)
	m.ScaleSince(base, 3.0)
	if got := m.Get(simtime.CatFault); got != 150 {
		t.Errorf("fault = %v, want 150", got)
	}
	if got := m.Get(simtime.CatCompute); got != 100 {
		t.Errorf("compute = %v, want 100 (pre-mark charges must not stretch)", got)
	}
}
