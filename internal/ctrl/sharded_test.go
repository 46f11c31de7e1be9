package ctrl

import (
	"bytes"
	"errors"
	"testing"

	"rmmap/internal/simtime"
)

func newSharded(n int) *Sharded {
	s := NewSharded(simtime.DefaultCostModel(), n)
	if err := s.Start(); err != nil {
		panic(err)
	}
	return s
}

// A single-shard plane must be byte-identical to the bare Coordinator:
// same journal stream, the same save blob as the container's one section,
// no shard-stamp records.
func TestShardedSingleMatchesCoordinator(t *testing.T) {
	cm := simtime.DefaultCostModel()
	s := NewSharded(cm, 1)
	c := New(cm)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ref := RegRef{ID: uint64(i), Key: mix64(uint64(i))}
		if err := s.Register(ref, i%4, []uint64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := c.Register(ref, i%4, []uint64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(s.Save(), EncodeShardedSave([][]byte{c.Save()})) {
		t.Fatal("single-shard Sharded save differs from the bare Coordinator save in a one-shard container")
	}
	if s.Stats() != c.Stats() {
		t.Fatalf("single-shard stats diverged: %+v vs %+v", s.Stats(), c.Stats())
	}
}

// Routing must be deterministic and shard-valid; every routed op must land
// on the shard the router names (Lookup through the plane finds it).
func TestShardedRouting(t *testing.T) {
	s := newSharded(4)
	total := 0
	perShard := make([]int, 4)
	for i := 0; i < 256; i++ {
		ref := RegRef{ID: uint64(i), Key: mix64(uint64(i) * 2654435761)}
		shard := s.RouteRef(ref)
		if shard != s.RouteRef(ref) {
			t.Fatal("routing is not deterministic")
		}
		if shard < 0 || shard >= s.NumShards() {
			t.Fatalf("route out of range: %d", shard)
		}
		if err := s.Register(ref, 0, nil); err != nil {
			t.Fatal(err)
		}
		if s.Shard(shard).Lookup(ref) == nil {
			t.Fatalf("ref %v not on its routed shard %d", ref, shard)
		}
		for other := 0; other < s.NumShards(); other++ {
			if other != shard && s.Shard(other).Lookup(ref) != nil {
				t.Fatalf("ref %v leaked onto shard %d (owner %d)", ref, other, shard)
			}
		}
		perShard[shard]++
		total++
	}
	if s.Live() != total {
		t.Fatalf("Live() = %d, want %d", s.Live(), total)
	}
	for i, n := range s.ShardLive() {
		if n != perShard[i] {
			t.Fatalf("ShardLive[%d] = %d, want %d", i, n, perShard[i])
		}
	}
	if perShard[0] == total {
		t.Fatal("all 256 keys routed to shard 0 — ring is not spreading")
	}
}

// Crashing one shard fences only that shard: the others keep serving,
// keep their epochs, and the plane reports Down (sheds new submissions)
// while per-shard state stays independent.
func TestShardedSingleShardCrash(t *testing.T) {
	s := newSharded(4)
	const victim = 2
	s.Crash(victim)
	if !s.Down() {
		t.Fatal("plane with a crashed shard must report Down")
	}
	for i := 0; i < 4; i++ {
		wantDown := i == victim
		if s.ShardDown(i) != wantDown {
			t.Fatalf("ShardDown(%d) = %v, want %v", i, s.ShardDown(i), wantDown)
		}
		wantEpoch := uint64(1)
		if i == victim {
			wantEpoch = 0 // volatile view died with the process
		}
		if got := s.ShardEpoch(i); got != wantEpoch {
			t.Fatalf("ShardEpoch(%d) = %d, want %d", i, got, wantEpoch)
		}
	}
	// Surviving shards still serve.
	ref := RegRef{ID: 7, Key: 7}
	for k := uint64(0); s.RouteRef(ref) == victim; k++ {
		ref.Key = mix64(k)
	}
	if err := s.Register(ref, 0, nil); err != nil {
		t.Fatalf("surviving shard refused an op: %v", err)
	}
	if _, err := s.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	if s.Down() {
		t.Fatal("plane still Down after the only crashed shard recovered")
	}
	if got := s.ShardEpoch(victim); got != 2 {
		t.Fatalf("recovered shard epoch = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		if i != victim && s.ShardEpoch(i) != 1 {
			t.Fatalf("bystander shard %d epoch = %d, want 1", i, s.ShardEpoch(i))
		}
	}
	st := s.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("stats: crashes=%d recoveries=%d, want 1/1", st.Crashes, st.Recoveries)
	}
}

// A recovered shard must replay its pre-crash journal: directory state
// survives the crash through durable storage.
func TestShardedRecoveryReplaysState(t *testing.T) {
	s := newSharded(4)
	refs := make([]RegRef, 0, 128)
	for i := 0; i < 128; i++ {
		ref := RegRef{ID: uint64(i), Key: mix64(uint64(i) | 1<<20)}
		if err := s.Register(ref, 1, nil); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	live := s.Live()
	const victim = 1
	s.Crash(victim)
	if _, err := s.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	if s.Live() != live {
		t.Fatalf("Live() = %d after recovery, want %d", s.Live(), live)
	}
	for _, ref := range refs {
		if s.Lookup(ref) == nil {
			t.Fatalf("ref %v lost across shard %d recovery", ref, victim)
		}
	}
}

// Ticket fencing: a ticket minted before a shard crash/recovery must not
// validate afterwards, and the plane counts the stale route. Tickets for
// untouched shards stay valid.
func TestShardedTicketFencing(t *testing.T) {
	s := newSharded(4)
	const victim = 3
	stale := s.Ticket(victim)
	bystander := s.Ticket(0)
	if err := s.ValidateTicket(stale); err != nil {
		t.Fatalf("fresh ticket rejected: %v", err)
	}
	s.Crash(victim)
	if _, err := s.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateTicket(stale); !errors.Is(err, ErrStaleRoute) {
		t.Fatalf("pre-recovery ticket validated: err=%v", err)
	}
	if err := s.ValidateTicket(bystander); err != nil {
		t.Fatalf("bystander shard's ticket invalidated by another shard's recovery: %v", err)
	}
	if got := s.Stats().StaleRoutes; got != 1 {
		t.Fatalf("StaleRoutes = %d, want 1", got)
	}
	if err := s.ValidateTicket(Ticket{Shard: 99, Gen: 0}); !errors.Is(err, ErrStaleRoute) {
		t.Fatalf("out-of-range ticket validated: err=%v", err)
	}
}

// Shard-local reconciliation: recovering shard i compares only refs the
// ring routes to i. A kernel listing full of other shards' registrations
// must not be adopted as shard i's drift, and shard i's own lost entry
// must be re-adopted.
func TestShardedReconcileIsShardLocal(t *testing.T) {
	s := newSharded(4)
	var mine, theirs []RegRef
	for k := uint64(0); len(mine) < 4 || len(theirs) < 4; k++ {
		ref := RegRef{ID: k, Key: mix64(k * 0x9e3779b9)}
		if s.RouteRef(ref) == 0 {
			mine = append(mine, ref)
		} else {
			theirs = append(theirs, ref)
		}
	}
	// The kernel lists everything; shard 0's directory holds nothing.
	listing := []MachineRegs{{Machine: 0, Refs: append(append([]RegRef{}, mine...), theirs...)}}
	rep := s.ReconcileShard(0, listing)
	if len(rep.Adopted) != len(mine) {
		t.Fatalf("shard 0 adopted %d refs, want its %d own", len(rep.Adopted), len(mine))
	}
	for _, ref := range rep.Adopted {
		if s.RouteRef(ref) != 0 {
			t.Fatalf("shard 0 adopted foreign ref %v (owner %d)", ref, s.RouteRef(ref))
		}
	}
	for _, ref := range theirs {
		if s.Shard(0).Lookup(ref) != nil {
			t.Fatalf("foreign ref %v adopted into shard 0's directory", ref)
		}
	}
	// Dropping is shard-local too: register one of shard 0's refs, then
	// reconcile with a listing that omits it — but still lists the foreign
	// refs, which must not confuse the pass.
	drop := mine[len(mine)-1]
	rep = s.ReconcileShard(0, []MachineRegs{{Machine: 0, Refs: theirs}})
	found := false
	for _, ref := range rep.Dropped {
		if s.RouteRef(ref) != 0 {
			t.Fatalf("shard 0 dropped foreign ref %v", ref)
		}
		if ref == drop {
			found = true
		}
	}
	if !found {
		t.Fatalf("shard 0 did not drop its lost ref %v", drop)
	}
}

// Save/load round-trip in the sharded container format, including the
// one-shard container a single-coordinator plane writes.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	s := newSharded(4)
	for i := 0; i < 200; i++ {
		ref := RegRef{ID: uint64(i), Key: mix64(uint64(i) * 11400714819323198485)}
		if err := s.Register(ref, i%3, nil); err != nil {
			t.Fatal(err)
		}
	}
	states, err := LoadShardStates(s.Save())
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("loaded %d shard states, want 4", len(states))
	}
	total := 0
	for i, st := range states {
		if st.Shard != i {
			t.Fatalf("state %d labeled shard %d", i, st.Shard)
		}
		if st.State.ShardID != i || st.State.ShardCount != 4 {
			t.Fatalf("shard %d stamp decoded as %d/%d", i, st.State.ShardID, st.State.ShardCount)
		}
		total += len(st.State.Regs)
	}
	if total != 200 {
		t.Fatalf("round-tripped %d regs, want 200", total)
	}

	single := newSharded(1)
	if err := single.Register(RegRef{ID: 1, Key: 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	states, err = LoadShardStates(single.Save())
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Shard != 0 || len(states[0].State.Regs) != 1 {
		t.Fatalf("one-shard container loaded wrong: %+v", states)
	}
	if states[0].State.ShardCount != 0 {
		t.Fatal("single-shard save must carry no shard stamp")
	}
}

// Corrupt sharded containers must fail loudly with a typed *CorruptError,
// not panic or half-load; a bare RMCSAVE1 blob is not a save file.
func TestShardedSaveCorruption(t *testing.T) {
	s := newSharded(2)
	blob := s.Save()
	bare := newSharded(1).Shard(0).Save()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bare single-coordinator blob", bare},
		{"truncated magic", blob[:len(shardedMagic)-1]},
		{"truncated header", blob[:len(shardedMagic)+2]},
		{"truncated section", blob[:len(blob)-3]},
		{"trailing bytes", append(append([]byte{}, blob...), 0xAA)},
	} {
		_, err := LoadShardStates(tc.data)
		if err == nil {
			t.Fatalf("%s: load succeeded on corrupt container", tc.name)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %v is not a *CorruptError", tc.name, err)
		}
	}
}

// Crash(-1) is the legacy whole-plane outage; stats aggregate per shard.
func TestShardedCrashAllAggregates(t *testing.T) {
	s := newSharded(3)
	s.Crash(-1)
	for i := 0; i < 3; i++ {
		if !s.ShardDown(i) {
			t.Fatalf("shard %d survived Crash(-1)", i)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.RecoverShard(i); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Crashes != 3 || st.Recoveries != 3 {
		t.Fatalf("aggregate crashes=%d recoveries=%d, want 3/3", st.Crashes, st.Recoveries)
	}
	// Start: 3 epoch bumps; recoveries: 3 more.
	if st.EpochBumps != 6 {
		t.Fatalf("aggregate epoch bumps = %d, want 6", st.EpochBumps)
	}
}

// The plan-slot union is shard-major and complete.
func TestShardedPlanSlots(t *testing.T) {
	s := newSharded(4)
	for i := 0; i < 32; i++ {
		if err := s.IssueSlot("fn", i, uint64(i)<<20, uint64(i+1)<<20); err != nil {
			t.Fatal(err)
		}
	}
	slots := s.PlanSlots()
	if len(slots) != 32 {
		t.Fatalf("PlanSlots() returned %d slots, want 32", len(slots))
	}
	seen := map[int]bool{}
	for _, sl := range slots {
		if sl.Fn != "fn" || seen[sl.Inst] {
			t.Fatalf("bad or duplicate slot %+v", sl)
		}
		seen[sl.Inst] = true
	}
}
