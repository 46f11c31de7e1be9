package main

import (
	"fmt"
	"sort"
	"time"

	"rmmap/internal/admit"
	"rmmap/internal/ctrl"
	"rmmap/internal/kernel"
	"rmmap/internal/load"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
	"rmmap/internal/transport"
)

// probe accumulates host time and Go heap allocations over timed calls into
// one layer, and the units (KB, pages, objects, operations) they covered.
type probe struct {
	elapsed time.Duration
	allocs  uint64
	ops     int
	units   float64
}

func (p *probe) time(units float64, fn func() error) error {
	a := heapAllocObjects()
	t := time.Now()
	err := fn()
	p.elapsed += time.Since(t)
	p.allocs += heapAllocObjects() - a
	p.ops++
	p.units += units
	return err
}

func (p *probe) nsPerUnit() float64 {
	if p.units == 0 {
		return 0
	}
	return float64(p.elapsed.Nanoseconds()) / p.units
}

func (p *probe) allocsPerOp() float64 {
	if p.ops == 0 {
		return 0
	}
	return float64(p.allocs) / float64(p.ops)
}

// layerProbes holds one probe per measured public call.
type layerProbes struct {
	pickle, unpickle, gc, walk        probe
	encode, decode                    probe
	read, markCoW                     probe
	register, deregister, rmap, fault probe
	prefetch, readPages               probe
	ctrlRegister, ctrlRelease         probe
	submit                            probe
	rounds                            int
}

// Scratch address-space layout: every heap gets its own range so a
// consumer can map the producer's heap at the producer's addresses.
const (
	prodBase  = 0x1_0000_0000
	consBase  = 0x9_0000_0000
	heapSpan  = 1 << 32
	ctrlOps   = 4096
	batchSize = 16 // pages per doorbell batch in the rdma probe
)

// measureLayers replays the captured states through each layer's public
// calls on scratch machines, runtimes and meters, round after round until
// budget is spent (at least one round).
func measureLayers(states []state, budget time.Duration) (*layerProbes, error) {
	p := &layerProbes{}
	start := time.Now()
	for p.rounds == 0 || time.Since(start) < budget {
		for _, st := range states {
			if err := p.replayState(st); err != nil {
				return nil, fmt.Errorf("layer probe %s: %w", st.name, err)
			}
		}
		if err := p.controlPlane(); err != nil {
			return nil, err
		}
		p.rounds++
	}
	return p, nil
}

// replayState moves one captured state through transport, objrt, memsim,
// kernel and rdma the way the platform does, timing each call.
func (p *layerProbes) replayState(st state) error {
	cm := simtime.DefaultCostModel()
	meter := simtime.NewMeter()
	fabric := rdma.NewSimFabric(cm)
	prodM, consM := memsim.NewMachine(0), memsim.NewMachine(1)
	fabric.Attach(prodM)
	fabric.Attach(consM)
	prodK := kernel.New(prodM, rdma.NewNIC(0, fabric), cm)
	consK := kernel.New(consM, rdma.NewNIC(1, fabric), cm)
	prodK.ServeRPC(fabric)
	consK.ServeRPC(fabric)
	newAS := func(m *memsim.Machine) *memsim.AddressSpace {
		as := memsim.NewAddressSpace(m, cm)
		as.SetMeter(meter)
		return as
	}
	newRT := func(m *memsim.Machine, base uint64) (*objrt.Runtime, error) {
		return objrt.NewRuntime(newAS(m), objrt.Config{HeapStart: base, HeapEnd: base + heapSpan})
	}
	kb := float64(len(st.data)) / 1024

	var raw []byte
	if err := p.encode.time(kb, func() (err error) {
		raw, err = transport.EncodeEvent("perfbench", st.name, "state", st.data, false)
		return err
	}); err != nil {
		return err
	}
	if err := p.decode.time(kb, func() error {
		_, _, err := transport.DecodeEvent(raw)
		return err
	}); err != nil {
		return err
	}

	rt, err := newRT(prodM, prodBase)
	if err != nil {
		return err
	}
	var root objrt.Obj
	if err := p.unpickle.time(kb, func() (err error) {
		root, err = objrt.Unpickle(rt, st.data, meter)
		return err
	}); err != nil {
		return err
	}
	if err := p.pickle.time(kb, func() error {
		_, _, err := objrt.Pickle(root, meter)
		return err
	}); err != nil {
		return err
	}
	start, end := usedRange(rt)
	pages := float64((end - start) / memsim.PageSize)
	buf := make([]byte, end-start)
	if err := p.read.time(float64(len(buf))/1024, func() error { return rt.AS().Read(start, buf) }); err != nil {
		return err
	}

	// A second copy is CoW-marked directly, and its frames are read over
	// the fabric in doorbell batches.
	rt2, err := newRT(prodM, prodBase)
	if err != nil {
		return err
	}
	if _, err := objrt.Unpickle(rt2, st.data, meter); err != nil {
		return err
	}
	var snap map[memsim.VPN]memsim.PFN
	if err := p.markCoW.time(pages, func() (err error) {
		snap, err = rt2.AS().MarkCoW(start, end)
		return err
	}); err != nil {
		return err
	}
	if err := p.readFrames(fabric, snap, meter); err != nil {
		return err
	}
	rt2.AS().Release()

	var meta kernel.VMMeta
	if err := p.register.time(pages, func() (err error) {
		meta, err = prodK.RegisterMem(rt.AS(), 1, 0xC0FFEE, start, end)
		return err
	}); err != nil {
		return err
	}
	rmap := func(as *memsim.AddressSpace) (*kernel.Mapping, error) {
		return consK.Rmap(as, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	}

	// Walk over a remote view: the consumer chases the producer's
	// pointers, faulting pages in as it goes.
	consRT, err := newRT(consM, consBase)
	if err != nil {
		return err
	}
	var walkMap *kernel.Mapping
	if err := p.rmap.time(1, func() (err error) {
		walkMap, err = rmap(consRT.AS())
		return err
	}); err != nil {
		return err
	}
	var ws objrt.WalkStats
	if err := p.walk.time(0, func() (err error) {
		ws, err = objrt.Walk(root.View(consRT), 0, func(uint64, uint64) {})
		return err
	}); err != nil {
		return err
	}
	p.walk.units += float64(ws.Objects)

	// Demand faults: one byte per page on a fresh mapping.
	faultAS := newAS(consM)
	faultMap, err := rmap(faultAS)
	if err != nil {
		return err
	}
	one := make([]byte, 1)
	if err := p.fault.time(pages, func() error {
		for a := start; a < end; a += memsim.PageSize {
			if err := faultAS.Read(a, one); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	prefetchAS := newAS(consM)
	prefetchMap, err := rmap(prefetchAS)
	if err != nil {
		return err
	}
	if err := p.prefetch.time(pages, func() error { return prefetchMap.PrefetchRange(start, end) }); err != nil {
		return err
	}

	for _, mp := range []*kernel.Mapping{walkMap, faultMap, prefetchMap} {
		if err := mp.Unmap(); err != nil {
			return err
		}
	}
	if err := p.deregister.time(pages, func() error { return prodK.DeregisterMem(meta.ID, meta.Key) }); err != nil {
		return err
	}
	// Nothing is rooted, so the collection sweeps the whole state.
	return p.gc.time(1, func() error {
		_, err := rt.GC()
		return err
	})
}

// readFrames reads the snapshot's frames from machine 1 over the fabric,
// batchSize pages per doorbell, in page order.
func (p *layerProbes) readFrames(fabric *rdma.SimFabric, snap map[memsim.VPN]memsim.PFN, meter *simtime.Meter) error {
	vpns := make([]memsim.VPN, 0, len(snap))
	for v := range snap {
		vpns = append(vpns, v)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	reqs := make([]rdma.PageRead, len(vpns))
	for i, v := range vpns {
		reqs[i] = rdma.PageRead{PFN: snap[v], Buf: make([]byte, memsim.PageSize)}
	}
	nic := rdma.NewNIC(1, fabric)
	return p.readPages.time(float64(len(reqs)), func() error {
		for i := 0; i < len(reqs); i += batchSize {
			if err := nic.ReadPages(meter, 0, reqs[i:min(i+batchSize, len(reqs))]); err != nil {
				return err
			}
		}
		return nil
	})
}

// controlPlane times coordinator journal operations and admission
// decisions on scratch instances.
func (p *layerProbes) controlPlane() error {
	c := ctrl.New(simtime.DefaultCostModel())
	if err := c.Start(); err != nil {
		return err
	}
	ref := func(i int) ctrl.RegRef { return ctrl.RegRef{ID: uint64(i + 1), Key: uint64(i)*0x9e3779b97f4a7c15 + 1} }
	if err := p.ctrlRegister.time(ctrlOps, func() error {
		for i := 0; i < ctrlOps; i++ {
			if err := c.Register(ref(i), i%soakMachines, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.ctrlRelease.time(ctrlOps, func() error {
		for i := 0; i < ctrlOps; i++ {
			if _, _, err := c.Release(ref(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	a := admit.NewController(admit.Config{DefaultDeadline: soakDeadline})
	return p.submit.time(ctrlOps, func() error {
		for i := 0; i < ctrlOps; i++ {
			now := simtime.Time(i) * simtime.Time(simtime.Microsecond)
			tenant := load.TenantName(i % soakTenants)
			a.Submit(now, &admit.Request{Tenant: tenant, Deadline: now.Add(soakDeadline)}, 0, 0)
			a.Record(now, tenant, admit.OutcomeOK)
		}
		return nil
	})
}

// usedRange is the page-aligned span of rt's live allocations.
func usedRange(rt *objrt.Runtime) (start, end uint64) {
	start, _ = rt.Heap().Bounds()
	end = start
	rt.Heap().EachAlloc(func(addr, size uint64) {
		end = max(end, addr+size)
	})
	end = (end + memsim.PageSize - 1) &^ (memsim.PageSize - 1)
	return start, end
}
