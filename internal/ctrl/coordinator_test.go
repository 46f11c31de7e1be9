package ctrl

import (
	"errors"
	"testing"

	"rmmap/internal/simtime"
)

func newTestCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c := New(simtime.DefaultCostModel())
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

func TestCoordinatorLifecycle(t *testing.T) {
	c := newTestCoordinator(t)
	if c.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", c.Epoch())
	}
	if err := c.IssueSlot("produce", 0, 0x1000, 0x2000); err != nil {
		t.Fatalf("IssueSlot: %v", err)
	}
	if err := c.Place(0, 1); err != nil {
		t.Fatalf("Place: %v", err)
	}
	ref := RegRef{ID: 7, Key: 9}
	if err := c.Register(ref, 1, []uint64{11}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.AddRef(ref); err != nil {
		t.Fatalf("AddRef: %v", err)
	}
	if err := c.ExtendACL(ref, []uint64{12}); err != nil {
		t.Fatalf("ExtendACL: %v", err)
	}
	if c.Live() != 1 {
		t.Fatalf("Live %d, want 1", c.Live())
	}

	m, last, err := c.Release(ref)
	if err != nil || m != 1 || last {
		t.Fatalf("first Release = (%d,%v,%v), want (1,false,nil)", m, last, err)
	}
	m, last, err = c.Release(ref)
	if err != nil || m != 1 || !last {
		t.Fatalf("second Release = (%d,%v,%v), want (1,true,nil)", m, last, err)
	}
	if err := c.NoteReclaim(ref, 1); err != nil {
		t.Fatalf("NoteReclaim: %v", err)
	}
	if c.Live() != 0 {
		t.Fatalf("Live %d after final release, want 0", c.Live())
	}
	if _, _, err := c.Release(ref); !errors.Is(err, ErrUnknownRef) {
		t.Fatalf("Release of reclaimed ref: %v, want ErrUnknownRef", err)
	}
	if got := c.Meter().Get(simtime.CatStorage); got == 0 {
		t.Fatalf("journal appends charged no storage time")
	}
}

func TestCoordinatorCrashRecoverReplaysJournal(t *testing.T) {
	c := newTestCoordinator(t)
	ref := RegRef{ID: 1, Key: 2}
	if err := c.Register(ref, 0, []uint64{5}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.AddRef(ref); err != nil {
		t.Fatalf("AddRef: %v", err)
	}

	c.Crash()
	if !c.Down() {
		t.Fatalf("not down after Crash")
	}
	if err := c.Register(RegRef{ID: 9, Key: 9}, 0, nil); !errors.Is(err, ErrDown) {
		t.Fatalf("Register while down: %v, want ErrDown", err)
	}
	if _, _, err := c.Release(ref); !errors.Is(err, ErrDown) {
		t.Fatalf("Release while down: %v, want ErrDown", err)
	}
	if c.Live() != 0 {
		t.Fatalf("volatile state survived crash: Live=%d", c.Live())
	}

	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Epoch != 2 || c.Epoch() != 2 {
		t.Fatalf("recovered epoch %d/%d, want 2", rep.Epoch, c.Epoch())
	}
	if rep.Replayed == 0 {
		t.Fatalf("recovery replayed no records")
	}
	reg := c.Lookup(ref)
	if reg == nil || reg.Refs != 2 || reg.Machine != 0 {
		t.Fatalf("recovered registration %+v, want refs=2 machine=0", reg)
	}
	st := c.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 || st.EpochBumps != 2 {
		t.Fatalf("stats %+v, want 1 crash, 1 recovery, 2 epoch bumps", st)
	}

	// A second crash/recovery bumps the epoch again — monotone across
	// restarts because adoptions are journaled.
	c.Crash()
	rep, err = c.Recover()
	if err != nil || rep.Epoch != 3 {
		t.Fatalf("second recovery: epoch %d err %v, want 3", rep.Epoch, err)
	}
}

func TestCoordinatorSnapshotCompaction(t *testing.T) {
	c := New(simtime.DefaultCostModel())
	c.SnapshotEvery = 256 // tiny trigger so a few appends compact
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i := 0; i < 50; i++ {
		ref := RegRef{ID: uint64(i), Key: uint64(i)}
		if err := c.Register(ref, i%3, []uint64{uint64(i + 100)}); err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("no snapshot despite %d journal bytes (trigger %d)", st.JournalBytes, c.SnapshotEvery)
	}

	// Recovery from snapshot + short tail reproduces the full directory.
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if c.Live() != 50 {
		t.Fatalf("recovered %d registrations, want 50 (report %+v)", c.Live(), rep)
	}
	if rep.SnapshotBytes == 0 {
		t.Fatalf("recovery loaded no snapshot")
	}
}

func TestCoordinatorReconcile(t *testing.T) {
	c := newTestCoordinator(t)
	kept := RegRef{ID: 1, Key: 1}
	stale := RegRef{ID: 2, Key: 2}   // directory-only: kernel lost it
	orphan := RegRef{ID: 3, Key: 3}  // kernel-only: directory lost it
	crashed := RegRef{ID: 4, Key: 4} // on a machine absent from listings
	for _, r := range []struct {
		ref RegRef
		m   int
	}{{kept, 0}, {stale, 0}, {crashed, 2}} {
		if err := c.Register(r.ref, r.m, nil); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}

	rep := c.Reconcile([]MachineRegs{
		{Machine: 0, Refs: []RegRef{kept}},
		{Machine: 1, Refs: []RegRef{orphan}},
	})
	if len(rep.Dropped) != 1 || rep.Dropped[0] != stale {
		t.Fatalf("Dropped %v, want [%v]", rep.Dropped, stale)
	}
	if len(rep.Adopted) != 1 || rep.Adopted[0] != orphan {
		t.Fatalf("Adopted %v, want [%v]", rep.Adopted, orphan)
	}
	if c.Lookup(stale) != nil {
		t.Fatalf("stale entry survived reconciliation")
	}
	if reg := c.Lookup(orphan); reg == nil || reg.Machine != 1 || reg.Refs != 1 {
		t.Fatalf("adopted entry %+v, want machine 1, refs 1", reg)
	}
	if c.Lookup(crashed) == nil {
		t.Fatalf("entry on unlisted machine dropped; crashed machines must be left alone")
	}
	st := c.Stats()
	if st.DriftDropped != 1 || st.DriftAdopted != 1 {
		t.Fatalf("drift counters %+v, want 1/1", st)
	}

	// Reconciling a consistent view is a no-op.
	rep = c.Reconcile([]MachineRegs{
		{Machine: 0, Refs: []RegRef{kept}},
		{Machine: 1, Refs: []RegRef{orphan}},
	})
	if len(rep.Dropped) != 0 || len(rep.Adopted) != 0 {
		t.Fatalf("second reconcile not a no-op: %+v", rep)
	}
}

// TestCoordinatorSaveFile: a single coordinator's durable image goes to
// disk as a one-shard RMCSHRD1 container and reads back as shard 0.
func TestCoordinatorSaveFile(t *testing.T) {
	s := NewSharded(simtime.DefaultCostModel(), 1)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.IssueSlot("f", 0, 0, 4096); err != nil {
		t.Fatalf("IssueSlot: %v", err)
	}
	path := t.TempDir() + "/ctrl.journal"
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	states, err := LoadShardStatesFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(states) != 1 || states[0].Shard != 0 {
		t.Fatalf("loaded %+v, want one state for shard 0", states)
	}
	st, replayed := states[0].State, states[0].Replayed
	if replayed != 2 { // epoch + slot
		t.Fatalf("replayed %d, want 2", replayed)
	}
	if len(st.Slots) != 1 || st.Slots[0].Fn != "f" {
		t.Fatalf("slots %+v", st.Slots)
	}
}
