package adaptive

import (
	"strings"
	"testing"

	"hwprof/internal/event"
)

// hairTrigger returns a controller config that acts on one pressured
// boundary, never de-escalates unless asked, and skips cooldowns — the
// shape the ladder tests use so every Boundary call is a decision point.
func hairTrigger() ElasticConfig {
	return ElasticConfig{
		Admitted:  Geometry{IntervalLength: 1000, TotalEntries: 256, Shards: 1},
		Tables:    4,
		HighWater: 2, // a zero high water would read every boundary as pressured
		LowWater:  1,
		Engage:    1,
		Release:   1,
		Settle:    1, // the minimum: Settle==0 means "default", not "none"
		Shed:      true,
	}
}

// pressured is a boundary observation with the queue over the high water
// mark and events shed — unambiguous pressure under any watermark setting.
func pressured(cur Geometry) Signals {
	return Signals{Cur: cur, QueueLen: 100, ShedDelta: 500, Variation: -1}
}

func calmSig(cur Geometry) Signals {
	return Signals{Cur: cur, QueueLen: 0, ShedDelta: 0, Variation: -1}
}

// drive feeds sig until the controller proposes, committing the proposal,
// and returns it. Fails the test if n boundaries pass without a proposal.
func drive(t *testing.T, e *Elastic, sig func(Geometry) Signals, cur *Geometry, n int) Action {
	t.Helper()
	for i := 0; i < n; i++ {
		a, ok := e.Boundary(sig(*cur))
		if !ok {
			continue
		}
		e.Commit(a, *cur)
		*cur = a.Geometry
		return a
	}
	t.Fatalf("no proposal after %d boundaries at rung %d", n, e.Rung())
	return Action{}
}

// TestElasticLadderEscalation walks the full ladder under sustained
// pressure with no scale-out escape hatch: shed → coarsen → shrink-tables
// (to the floor) → park, with the rung advancing only on Commit.
func TestElasticLadderEscalation(t *testing.T) {
	cfg := hairTrigger()
	cfg.MaxShards = 1 // no grow-shards: force the ladder
	e := NewElastic(cfg)
	cur := cfg.Admitted

	steps := []struct {
		op   Op
		rung int
	}{
		{OpShed, RungShed},
		{OpCoarsen, RungCoarse},
		{OpShrinkTables, RungShrunk},
		{OpPark, RungParked},
	}
	for _, want := range steps {
		a := drive(t, e, pressured, &cur, 10)
		if a.Op != want.op || a.Rung != want.rung {
			t.Fatalf("ladder step = %s → rung %d, want %s → rung %d (reason %q)",
				a.Op, a.Rung, want.op, want.rung, a.Reason)
		}
		if e.Rung() != want.rung {
			t.Fatalf("rung after commit = %d, want %d", e.Rung(), want.rung)
		}
		if a.Reason == "" {
			t.Fatalf("%s proposed without a reason", a.Op)
		}
	}
	if cur.IntervalLength != 2000 || cur.TotalEntries != 128 {
		t.Fatalf("parked geometry = %+v, want interval 2000 entries 128", cur)
	}
	// Fully degraded and still hot: the controller has nothing left and
	// must not re-propose park.
	for i := 0; i < 10; i++ {
		if a, ok := e.Boundary(pressured(cur)); ok {
			t.Fatalf("proposal %s past the ladder floor", a.Op)
		}
	}
}

// TestElasticQueuePressureEntersShedRung: on a shed-policy session, queue
// pressure that reaches a boundary before any batch was shed still climbs
// through rung 1 before coarsening — the ladder never skips a rung.
func TestElasticQueuePressureEntersShedRung(t *testing.T) {
	cfg := hairTrigger()
	cfg.MaxShards = 1
	e := NewElastic(cfg)
	cur := cfg.Admitted
	queued := func(cur Geometry) Signals {
		return Signals{Cur: cur, QueueLen: 100, ShedDelta: 0, Variation: -1}
	}
	if a := drive(t, e, queued, &cur, 10); a.Op != OpShed || a.Rung != RungShed {
		t.Fatalf("first action = %s at rung %d, want %s at rung %d", a.Op, a.Rung, OpShed, RungShed)
	}
	if a := drive(t, e, queued, &cur, 10); a.Op != OpCoarsen {
		t.Fatalf("second action = %s, want %s", a.Op, OpCoarsen)
	}
}

// TestElasticScaleOutBeforeDegrading verifies the controller prefers a
// shard scale-up over any accuracy-costing rung when the budget allows,
// and steps straight to the ladder when it does not.
func TestElasticScaleOutBeforeDegrading(t *testing.T) {
	cfg := hairTrigger()
	cfg.MaxShards = 4
	e := NewElastic(cfg)
	cur := cfg.Admitted

	a := drive(t, e, pressured, &cur, 10) // rung 1 first: observational
	if a.Op != OpShed {
		t.Fatalf("first action = %s, want %s", a.Op, OpShed)
	}
	a = drive(t, e, pressured, &cur, 10)
	if a.Op != OpGrowShards || a.Geometry.Shards != 2 {
		t.Fatalf("action = %s to %d shard(s), want %s to 2", a.Op, a.Geometry.Shards, OpGrowShards)
	}
	if a.Rung != RungShed {
		t.Fatalf("scale-out moved the rung to %d; it must not degrade", a.Rung)
	}

	// A broke tenant: the affordability probe steers the proposal straight
	// to the ladder (coarsen is also a cost increase, so it lands on the
	// guaranteed-cheaper table shrink).
	cfg = hairTrigger()
	cfg.MaxShards = 4
	cfg.CanAfford = func(g Geometry) bool {
		return g.Shards <= 1 && g.IntervalLength <= cfg.Admitted.IntervalLength
	}
	e = NewElastic(cfg)
	cur = cfg.Admitted
	drive(t, e, pressured, &cur, 10) // shed
	a = drive(t, e, pressured, &cur, 10)
	if a.Op != OpShrinkTables {
		t.Fatalf("unaffordable scale-out proposed %s, want %s", a.Op, OpShrinkTables)
	}
}

// TestElasticDeescalation parks a session, then feeds calm boundaries and
// checks the controller walks back down: restore from park, grow the
// tables back, restore the interval, reach full service, and stay quiet.
func TestElasticDeescalation(t *testing.T) {
	cfg := hairTrigger()
	cfg.MaxShards = 1
	e := NewElastic(cfg)
	cur := cfg.Admitted
	for e.Rung() != RungParked {
		drive(t, e, pressured, &cur, 10)
	}

	steps := []struct {
		op   Op
		rung int
	}{
		{OpRestore, RungShrunk}, // resumed calm after park
		{OpRestore, RungCoarse}, // entries 128 → 256 (admitted)
		{OpRestore, RungFull},   // interval 2000 → 1000 (admitted)
	}
	for _, want := range steps {
		a := drive(t, e, calmSig, &cur, 20)
		if a.Op != want.op || a.Rung != want.rung {
			t.Fatalf("de-escalation step = %s → rung %d, want %s → rung %d (reason %q)",
				a.Op, a.Rung, want.op, want.rung, a.Reason)
		}
	}
	if cur != cfg.Admitted {
		t.Fatalf("restored geometry = %+v, want admitted %+v", cur, cfg.Admitted)
	}
	// At full service, admitted geometry, still calm: nothing to propose.
	for i := 0; i < 20; i++ {
		if a, ok := e.Boundary(calmSig(cur)); ok {
			t.Fatalf("proposal %s at full service with the admitted geometry", a.Op)
		}
	}
}

// TestElasticRefuseCoolsDown verifies a refused proposal keeps the rung,
// clears the pending transition, and backs off for Settle boundaries
// before re-proposing.
func TestElasticRefuseCoolsDown(t *testing.T) {
	cfg := hairTrigger()
	cfg.MaxShards = 1
	cfg.Shed = false // skip the observational rung; first proposal resizes
	cfg.Engage = 2
	cfg.Settle = 3
	e := NewElastic(cfg)
	cur := cfg.Admitted

	var a Action
	var ok bool
	for i := 0; i < 10 && !ok; i++ {
		a, ok = e.Boundary(pressured(cur))
	}
	if !ok || a.Op != OpCoarsen {
		t.Fatalf("expected a coarsen proposal, got %v (%v)", a.Op, ok)
	}
	e.Refuse()
	if e.Rung() != RungFull {
		t.Fatalf("rung after refusal = %d, want %d (refusal must not advance the ladder)", e.Rung(), RungFull)
	}
	// Settle=3 cooldown boundaries swallow the proposal outright (the
	// pressure streak keeps building underneath), so boundaries 1..3 are
	// silent and boundary 4 — cooldown spent, streak long since engaged —
	// re-proposes.
	for i := 1; i <= 3; i++ {
		if a, ok := e.Boundary(pressured(cur)); ok {
			t.Fatalf("proposal %s on boundary %d inside the refusal backoff", a.Op, i)
		}
	}
	if _, ok := e.Boundary(pressured(cur)); !ok {
		t.Fatal("no re-proposal after the refusal backoff expired")
	}
}

// TestElasticAccuracyAxis drives the §5.6.1 interval adaptation through
// ObserveProfile: disjoint candidate sets shrink the interval, identical
// ones grow it back, and a pressured boundary freezes the axis.
func TestElasticAccuracyAxis(t *testing.T) {
	cfg := hairTrigger()
	cfg.Engage = 2
	e := NewElastic(cfg)
	cur := cfg.Admitted

	profA := map[event.Tuple]uint64{{A: 1, B: 1}: 10, {A: 2, B: 2}: 10}
	profB := map[event.Tuple]uint64{{A: 3, B: 3}: 10, {A: 4, B: 4}: 10}
	sig := func(prof map[event.Tuple]uint64) Signals {
		distinct, variation := e.ObserveProfile(prof, 5)
		s := calmSig(cur)
		s.Distinct, s.Variation = distinct, variation
		return s
	}

	// Boundary 1 has no history (variation −1); alternate disjoint
	// candidate sets from there: variation 100% > ShrinkAbove on every
	// boundary after it.
	var act Action
	var ok bool
	profs := []map[event.Tuple]uint64{profA, profB, profA, profB, profA}
	for _, p := range profs {
		if act, ok = e.Boundary(sig(p)); ok {
			break
		}
	}
	if !ok || act.Op != OpShrinkInterval || act.Geometry.IntervalLength != cur.IntervalLength/2 {
		t.Fatalf("volatile candidates proposed %v (%v), want %s to %d", act.Op, ok, OpShrinkInterval, cur.IntervalLength/2)
	}
	if !strings.Contains(act.Reason, "variation") {
		t.Fatalf("reason %q does not cite the variation arithmetic", act.Reason)
	}
	e.Commit(act, cur)
	cur = act.Geometry

	// A stable candidate set (variation 0 < GrowBelow) grows it back.
	for i := 0; i < 20; i++ {
		if act, ok = e.Boundary(sig(profA)); ok {
			break
		}
	}
	if !ok || act.Op != OpGrowInterval {
		t.Fatalf("stable candidates proposed %v (%v), want %s", act.Op, ok, OpGrowInterval)
	}
	e.Commit(act, cur)
	cur = act.Geometry

	// Pressure freezes the axis: the variation streak resets while the
	// queue is hot, so no accuracy resize can fire during degradation.
	for i := 0; i < 5; i++ {
		s := sig(profB)
		s.QueueLen = 100
		if act, ok := e.Boundary(s); ok && (act.Op == OpShrinkInterval || act.Op == OpGrowInterval) {
			t.Fatalf("accuracy axis proposed %s under queue pressure", act.Op)
		}
		e.Refuse() // discard whatever escalation proposed instead
	}
}

// TestElasticOccupancyAxis grows the tables when the distinct-tuple count
// exceeds the occupancy watermark for Engage boundaries.
func TestElasticOccupancyAxis(t *testing.T) {
	cfg := hairTrigger()
	cfg.Engage = 2
	cfg.Shed = false
	e := NewElastic(cfg)
	cur := cfg.Admitted

	var act Action
	var ok bool
	for i := 0; i < 10 && !ok; i++ {
		s := calmSig(cur)
		s.Distinct = cur.TotalEntries * 2 // occupancy 2.0 > OccupancyHigh 1.0
		act, ok = e.Boundary(s)
	}
	if !ok || act.Op != OpGrowTables || act.Geometry.TotalEntries != cur.TotalEntries*2 {
		t.Fatalf("occupancy pressure proposed %v (%v), want %s to %d", act.Op, ok, OpGrowTables, cur.TotalEntries*2)
	}
}

// TestElasticFixedInterval pins the interval for publishing sessions: the
// ladder must skip coarsening and the accuracy axis must stay silent.
func TestElasticFixedInterval(t *testing.T) {
	cfg := hairTrigger()
	cfg.MaxShards = 1
	cfg.FixedInterval = true
	e := NewElastic(cfg)
	cur := cfg.Admitted

	drive(t, e, pressured, &cur, 10) // shed
	a := drive(t, e, pressured, &cur, 10)
	if a.Op != OpShrinkTables {
		t.Fatalf("fixed-interval escalation = %s, want %s (coarsen must be skipped)", a.Op, OpShrinkTables)
	}
	if a.Geometry.IntervalLength != cfg.Admitted.IntervalLength {
		t.Fatalf("fixed interval moved to %d", a.Geometry.IntervalLength)
	}
}

// TestElasticGeometryHelpers pins the shard/entry arithmetic the resize
// proposals rely on.
func TestElasticGeometryHelpers(t *testing.T) {
	if got := growShards(2, 256, 8); got != 4 {
		t.Errorf("growShards(2, 256, 8) = %d, want 4", got)
	}
	if got := growShards(2, 6, 8); got != 3 {
		t.Errorf("growShards(2, 6, 8) = %d, want 3 (divisibility fallback)", got)
	}
	if got := growShards(4, 4, 4); got != 4 {
		t.Errorf("growShards at the cap = %d, want 4", got)
	}
	if got := clampShards(4, 6); got != 3 {
		t.Errorf("clampShards(4, 6) = %d, want 3", got)
	}
	if got := clampShards(0, 8); got != 1 {
		t.Errorf("clampShards(0, 8) = %d, want 1", got)
	}
	if !shrinkableEntries(256, 4, 4) {
		t.Error("shrinkableEntries(256, 4, 4) = false, want true")
	}
	if shrinkableEntries(8, 4, 8) {
		t.Error("shrinkableEntries below the floor = true, want false")
	}
}
