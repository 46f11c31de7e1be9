package bench

import (
	"io"

	"rmmap/internal/arrow"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "abl-arrow",
		Title: "Comparison: Arrow-style columnar interchange vs pickle vs rmap (§6)",
		Expect: "arrow removes the reconstruct stage (zero-copy receive) and " +
			"beats pickle, but its transform stage remains — rmap, which " +
			"skips the transform too, wins",
		Run: runAblArrow,
	})
}

// runAblArrow transfers a trades dataframe over the same storage(rdma)
// channel with three object-exchange mechanisms.
func runAblArrow(w io.Writer, rc RunConfig) error {
	cm := simtime.DefaultCostModel()
	rows := scaleInt(16000, rc.Scale)
	t := newTable(w, "mechanism", "T(transform)", "N(channel)", "R(reconstruct)", "E2E", "wire")

	// Pickle over storage(rdma) and rmap via the shared micro rig. Both
	// rmap variants appear: this string-heavy frame is exactly where the
	// adaptive policy (abl-adaptive) picks demand paging over traversal.
	for _, ap := range []approach{apDrTM, apRMMAP, apRMMAPPrefetch} {
		rig, err := newMicroRig(cm)
		if err != nil {
			return err
		}
		df, err := workloads.GenTrades(rig.ProdRT, rows, 1)
		if err != nil {
			return err
		}
		x, err := rig.transfer(df, ap)
		if err != nil {
			return err
		}
		name := ap.String()
		if ap == apDrTM {
			name = "pickle + storage(rdma)"
		}
		t.row(name, x.T, x.N, x.R, x.E2E(), x.Wire)
	}

	// Arrow over the same storage(rdma) channel.
	rig, err := newMicroRig(cm)
	if err != nil {
		return err
	}
	df, err := workloads.GenTrades(rig.ProdRT, rows, 1)
	if err != nil {
		return err
	}
	prodMeter := simtime.NewMeter()
	batch, _, err := arrow.Encode(df, prodMeter)
	if err != nil {
		return err
	}
	wire := batch.Wire(prodMeter, cm)
	netMeter := simtime.NewMeter()
	if err := rig.drtm.Put(netMeter, "k", wire); err != nil {
		return err
	}
	data, err := rig.drtm.Get(netMeter, "k")
	if err != nil {
		return err
	}
	consMeter := simtime.NewMeter()
	back, err := arrow.FromWire(data)
	if err != nil {
		return err
	}
	// Touch every column (zero-copy reads, no reconstruction charge).
	for i := range back.Cols {
		if back.Cols[i].Kind == arrow.KindString {
			if _, err := back.Cols[i].Str(0); err != nil {
				return err
			}
		}
	}
	T := prodMeter.Get(simtime.CatSerialize)
	N := netMeter.Total()
	R := consMeter.Total()
	t.row("arrow + storage(rdma)", T, N, R, T+N+R, len(wire))
	t.flush()
	return nil
}
