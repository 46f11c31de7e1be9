package bench

import (
	"io"

	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "abl-adaptive",
		Title: "Extension: adaptive prefetch policy (§4.4 future work)",
		Expect: "adaptive matches the better of always/never per type: it " +
			"prefetches page-dense states (ndarray, str) and demand-pages " +
			"object-dense ones (list(int))",
		Run: runAblAdaptive,
	})
}

// runAblAdaptive compares prefetch policies per data type on the micro
// rig: always traverse, never prefetch, adaptive sampling.
func runAblAdaptive(w io.Writer, rc RunConfig) error {
	cm := simtime.DefaultCostModel()
	types := []struct {
		name  string
		build func(rt *objrt.Runtime) (objrt.Obj, error)
	}{
		{"ndarray", func(rt *objrt.Runtime) (objrt.Obj, error) {
			n := scaleInt(500000, rc.Scale)
			return rt.NewNDArray([]int{n}, make([]float64, n))
		}},
		{"str", func(rt *objrt.Runtime) (objrt.Obj, error) {
			n := scaleInt(4<<20, rc.Scale)
			return rt.NewStr(string(make([]byte, n)))
		}},
		{"list(int)", func(rt *objrt.Runtime) (objrt.Obj, error) {
			return rt.NewIntList(make([]int64, scaleInt(100000, rc.Scale)))
		}},
	}

	t := newTable(w, "type", "policy", "decision", "T", "N", "E2E")
	for _, typ := range types {
		for _, policy := range []string{"always", "never", "adaptive"} {
			rig, err := newMicroRig(cm)
			if err != nil {
				return err
			}
			root, err := typ.build(rig.ProdRT)
			if err != nil {
				return err
			}
			prodMeter, consMeter := simtime.NewMeter(), simtime.NewMeter()
			rig.prodAS.SetMeter(prodMeter)
			rig.consAS.SetMeter(consMeter)
			start, _ := rig.ProdRT.Heap().Bounds()
			end := (rig.ProdRT.Heap().Used() + memsim.PageSize) &^ uint64(memsim.PageSize-1)
			meta, err := rig.prodK.RegisterMem(rig.prodAS, 1, 1, start, end)
			if err != nil {
				return err
			}
			decision := "demand-page"
			var pages []memsim.VPN
			switch policy {
			case "always":
				plan, err := objrt.PlanPrefetch(root, 0, prodMeter)
				if err != nil {
					return err
				}
				pages = plan.Pages
				decision = "prefetch"
			case "adaptive":
				plan, worth, err := objrt.PlanPrefetchAdaptive(root, prodMeter)
				if err != nil {
					return err
				}
				if worth {
					pages = plan.Pages
					decision = "prefetch"
				}
			}
			mp, err := rig.consK.Rmap(rig.consAS, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
			if err != nil {
				return err
			}
			if len(pages) > 0 {
				if err := mp.Prefetch(pages); err != nil {
					return err
				}
			}
			if err := checksum(root.View(rig.ConsRT)); err != nil {
				return err
			}
			T := prodMeter.Get(simtime.CatRegister)
			N := consMeter.Get(simtime.CatMap) + consMeter.Get(simtime.CatFault)
			t.row(typ.name, policy, decision, T, N, T+N)
		}
	}
	t.flush()
	return nil
}
