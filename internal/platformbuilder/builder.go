package platformbuilder

import (
	"fmt"
	"sort"

	"rmmap/internal/memsim"
	"rmmap/internal/platform"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// Default link classes used when a multi-rack builder does not override
// them: 100 Gbps access links with a 250 ns ToR traversal, and a heavily
// oversubscribed 6.4 Gbps spine with a 2 µs traversal. With the default
// cost model these make the cross-rack datapath cost of a demand-faulting
// fan-out a bit over 2× its intra-rack cost — the cliff abl-topology
// measures.
var (
	DefaultToRLink   = rdma.LinkSpec{Hop: 250 * simtime.Nanosecond, GBps: 12.5}
	DefaultSpineLink = rdma.LinkSpec{Hop: 2 * simtime.Microsecond, GBps: 0.8}
)

// Builder composes a cluster programmatically — the code-as-configuration
// entry point (PLATFORMS.md). Methods return the builder for chaining;
// errors accumulate and surface at Config, so a recipe reads as one
// expression:
//
//	cfg, err := platformbuilder.NewBuilder().
//	        WithRacks(4).WithMachinesPerRack(8).
//	        WithToRLinks(250*simtime.Nanosecond, 12.5).
//	        WithSpine(2*simtime.Microsecond, 3.125).
//	        WithFabric(3, rdma.FabricTCP).
//	        WithStraggler(7, 3.0).
//	        Config()
//	cfg.Pods = 64
//	e, err := platform.NewEngine(wf, mode, opts, cfg)
//
// A one-rack build with no link spec, stragglers, or TCP racks compiles to
// a flat platform.ClusterConfig with a nil topology — byte-identical to
// the classic flat cluster by construction.
type Builder struct {
	name      string
	racks     int
	perRack   int
	explicit  []machineDecl // WithMachine placements (override the grid)
	tor       rdma.LinkSpec
	spine     rdma.LinkSpec
	linksSet  bool
	fabrics   map[int]rdma.FabricKind
	crossTCP  bool
	straggler []stragglerDecl
	err       error
}

type machineDecl struct {
	id, rack int
}

type stragglerDecl struct {
	machine int
	mult    float64
}

// NewBuilder returns an empty builder (one rack, no machines yet).
func NewBuilder() *Builder {
	return &Builder{name: "custom", racks: 1, tor: DefaultToRLink, spine: DefaultSpineLink}
}

// fail records the first error; later calls keep chaining harmlessly.
func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("platformbuilder: "+format, args...)
	}
	return b
}

// WithName labels the platform; reports carry it (e.g. the fig14 rows'
// "topology" field).
func (b *Builder) WithName(name string) *Builder {
	b.name = name
	return b
}

// Name reports the platform's label.
func (b *Builder) Name() string { return b.name }

// WithRacks sets the rack count.
func (b *Builder) WithRacks(n int) *Builder {
	if n <= 0 {
		return b.fail("zero racks")
	}
	b.racks = n
	return b
}

// WithMachinesPerRack sets a uniform grid: every rack gets n machines,
// numbered contiguously (rack 0 holds machines 0..n-1, rack 1 holds
// n..2n-1, …). Explicit WithMachine placements override the grid.
func (b *Builder) WithMachinesPerRack(n int) *Builder {
	if n <= 0 {
		return b.fail("machines per rack must be positive, got %d", n)
	}
	b.perRack = n
	return b
}

// WithMachine places one explicitly numbered machine in a rack. Mixing
// explicit placements with WithMachinesPerRack is an error; machine IDs
// must end up dense (0..N-1).
func (b *Builder) WithMachine(id, rack int) *Builder {
	if id < 0 {
		return b.fail("negative machine id %d", id)
	}
	if rack < 0 {
		return b.fail("machine %d placed in negative rack %d", id, rack)
	}
	for _, m := range b.explicit {
		if m.id == id {
			return b.fail("duplicate machine id %d", id)
		}
	}
	b.explicit = append(b.explicit, machineDecl{id: id, rack: rack})
	return b
}

// WithToRLinks sets the access-link class: the per-traversal ToR hop
// latency and the per-link bandwidth in GB/s (0 = infinitely fast).
// Calling it on a one-rack build opts that build into topology accounting.
func (b *Builder) WithToRLinks(hop simtime.Duration, gbps float64) *Builder {
	if hop < 0 || gbps < 0 {
		return b.fail("negative ToR link parameters (hop %v, %v GB/s)", hop, gbps)
	}
	b.tor = rdma.LinkSpec{Hop: hop, GBps: gbps}
	b.linksSet = true
	return b
}

// WithSpine sets the spine-link class for cross-rack traffic.
func (b *Builder) WithSpine(hop simtime.Duration, gbps float64) *Builder {
	if hop < 0 || gbps < 0 {
		return b.fail("negative spine link parameters (hop %v, %v GB/s)", hop, gbps)
	}
	b.spine = rdma.LinkSpec{Hop: hop, GBps: gbps}
	b.linksSet = true
	return b
}

// WithFabric selects the byte transport for one rack's machines.
func (b *Builder) WithFabric(rack int, kind rdma.FabricKind) *Builder {
	if rack < 0 {
		return b.fail("fabric on negative rack %d", rack)
	}
	if b.fabrics == nil {
		b.fabrics = make(map[int]rdma.FabricKind)
	}
	b.fabrics[rack] = kind
	return b
}

// WithCrossRackTCP puts every cross-rack link on real loopback TCP while
// intra-rack traffic stays in-process — the mixed-fabric arrangement.
func (b *Builder) WithCrossRackTCP() *Builder {
	b.crossTCP = true
	return b
}

// WithStraggler stretches every remote operation touching one machine by
// mult (≥ 1): a slow NIC/host in an otherwise healthy rack.
func (b *Builder) WithStraggler(machine int, mult float64) *Builder {
	if mult < 1 {
		return b.fail("straggler multiplier must be ≥ 1, got %v", mult)
	}
	b.straggler = append(b.straggler, stragglerDecl{machine: machine, mult: mult})
	return b
}

// rackAssignment compiles the machine→rack map: explicit placements win;
// otherwise the uniform grid (racks × perRack, contiguous blocks).
func (b *Builder) rackAssignment() ([]int, error) {
	if len(b.explicit) > 0 {
		if b.perRack > 0 {
			return nil, fmt.Errorf("platformbuilder: explicit machine placements conflict with WithMachinesPerRack")
		}
		n := len(b.explicit)
		rackOf := make([]int, n)
		seen := make([]bool, n)
		for _, m := range b.explicit {
			if m.id >= n {
				return nil, fmt.Errorf("platformbuilder: machine ids must be dense 0..%d, got %d", n-1, m.id)
			}
			if m.rack >= b.racks {
				return nil, fmt.Errorf("platformbuilder: machine %d placed in rack %d, only %d racks", m.id, m.rack, b.racks)
			}
			seen[m.id] = true
			rackOf[m.id] = m.rack
		}
		for id, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("platformbuilder: machine ids must be dense 0..%d, missing %d", n-1, id)
			}
		}
		return rackOf, nil
	}
	per := b.perRack
	if per <= 0 {
		per = 2
	}
	rackOf := make([]int, b.racks*per)
	for i := range rackOf {
		rackOf[i] = i / per
	}
	return rackOf, nil
}

// topoNeeded reports whether this build carries any topology semantics; a
// build without them compiles to a flat config (nil topology) so one-rack
// platforms stay byte-identical to the classic cluster.
func (b *Builder) topoNeeded() bool {
	return b.racks > 1 || b.linksSet || b.crossTCP || len(b.straggler) > 0 || len(b.fabrics) > 0
}

// Config validates the builder and compiles its shape (machines and
// topology) to a platform.ClusterConfig; the caller adds pods and any run
// knobs (chaos, cache sizes) before handing it to platform.NewEngine.
func (b *Builder) Config() (platform.ClusterConfig, error) {
	if b.err != nil {
		return platform.ClusterConfig{}, b.err
	}
	rackOf, err := b.rackAssignment()
	if err != nil {
		return platform.ClusterConfig{}, err
	}
	counts := make([]int, b.racks)
	for _, r := range rackOf {
		counts[r]++
	}
	for r, c := range counts {
		if c == 0 {
			return platform.ClusterConfig{}, fmt.Errorf("platformbuilder: rack %d has no machines", r)
		}
	}
	for rack := range b.fabrics {
		if rack >= b.racks {
			return platform.ClusterConfig{}, fmt.Errorf("platformbuilder: fabric on unknown rack %d (%d racks)", rack, b.racks)
		}
	}
	for _, s := range b.straggler {
		if s.machine >= len(rackOf) {
			return platform.ClusterConfig{}, fmt.Errorf("platformbuilder: straggler on unknown machine %d (%d machines)", s.machine, len(rackOf))
		}
	}
	cfg := platform.ClusterConfig{Machines: len(rackOf)}
	if !b.topoNeeded() {
		return cfg, nil
	}
	topo, err := rdma.NewTopology(rackOf, b.tor, b.spine)
	if err != nil {
		return platform.ClusterConfig{}, err
	}
	// Deterministic wiring order regardless of map iteration.
	rackKeys := make([]int, 0, len(b.fabrics))
	for r := range b.fabrics {
		rackKeys = append(rackKeys, r)
	}
	sort.Ints(rackKeys)
	for _, r := range rackKeys {
		topo.SetRackFabric(r, b.fabrics[r])
	}
	topo.SetCrossRackTCP(b.crossTCP)
	for _, s := range b.straggler {
		topo.SetStraggler(memsim.MachineID(s.machine), s.mult)
	}
	cfg.Topo = topo
	return cfg, nil
}

// Machines reports how many machines the build will have (0 on error).
func (b *Builder) Machines() int {
	if b.err != nil {
		return 0
	}
	rackOf, err := b.rackAssignment()
	if err != nil {
		return 0
	}
	return len(rackOf)
}
