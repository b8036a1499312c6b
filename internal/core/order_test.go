package core

// Property tests pinning down which within-batch reorderings preserve the
// profile — the correctness boundary the staged pipeline is built around
// (DESIGN.md §14):
//
//   - Plain update (C0) without promotions is permutation-invariant: the
//     final counter state is a per-counter sum of saturating increments.
//   - Conservative update (C1) is order-sensitive even under schedules
//     that preserve per-counter order: an increment is guarded by the
//     event's cross-counter minimum at its logical time, which couples
//     counters the events do not share. This is why every commit loop
//     walks its window in event order.
//   - Swapping adjacent events with disjoint counter sets preserves the
//     state under either policy (their updates touch disjoint words).

import (
	"testing"

	"hwprof/internal/event"
	"hwprof/internal/hashfn"
	"hwprof/internal/xrand"
)

// counterOffsets returns tp's n flat counter offsets under m's hash family.
func counterOffsets(m *MultiHash, tp event.Tuple) []int {
	p := m.fused.Packed(tp)
	n := m.fused.Len()
	size := m.set.Size()
	out := make([]int, n)
	for t := 0; t < n; t++ {
		out[t] = t*size + int(p&hashfn.FusedMask)
		p >>= 16
	}
	return out
}

// orderTestConfig is a C1-capable shape with an unreachable promotion
// threshold, so the tests observe pure counter dynamics.
func orderTestConfig(c1 bool) Config {
	return Config{
		IntervalLength:     1 << 20,
		ThresholdPercent:   1, // threshold count ~10486, unreachable here
		TotalEntries:       256,
		NumTables:          4,
		CounterWidth:       16,
		ConservativeUpdate: c1,
		Seed:               0x0D5E,
	}
}

func mustMultiHash(t *testing.T, cfg Config) *MultiHash {
	t.Helper()
	m, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatalf("NewMultiHash: %v", err)
	}
	return m
}

// counterState snapshots every flat counter.
func counterState(m *MultiHash) []uint64 {
	out := make([]uint64, m.cfg.TotalEntries)
	for j := range out {
		out[j] = m.set.GetAt(j)
	}
	return out
}

// sharedPair searches for two tuples whose counter sets overlap without
// coinciding — the raw material of the C1 counterexample.
func sharedPair(t *testing.T, m *MultiHash) (x, y event.Tuple, shared, xOnly, yOnly []int) {
	r := xrand.New(0x9E3)
	x = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	jx := counterOffsets(m, x)
	inX := make(map[int]bool, len(jx))
	for _, j := range jx {
		inX[j] = true
	}
	for range [1 << 16]struct{}{} {
		y = event.Tuple{A: r.Uint64(), B: r.Uint64()}
		if y == x {
			continue
		}
		jy := counterOffsets(m, y)
		shared, xOnly, yOnly = shared[:0], xOnly[:0], yOnly[:0]
		inY := make(map[int]bool, len(jy))
		for _, j := range jy {
			inY[j] = true
			if inX[j] {
				shared = append(shared, j)
			} else {
				yOnly = append(yOnly, j)
			}
		}
		for _, j := range jx {
			if !inY[j] {
				xOnly = append(xOnly, j)
			}
		}
		if len(shared) > 0 && len(xOnly) > 0 && len(yOnly) > 0 {
			return x, y, shared, xOnly, yOnly
		}
	}
	t.Fatal("no overlapping tuple pair found (hash family degenerate?)")
	return
}

// TestC1OrderSensitivity exhibits the concrete counterexample that proves
// conservative update cannot be reordered, even by schedules that keep
// each individual counter's accesses in order: two events x, y sharing a
// counter s, with y's private counters pre-incremented. In order (x, y),
// x raises s to 1 so y's minimum is 1 and s reaches 2; in order (y, x),
// y's minimum is 0 at s, so s only reaches 1. The per-counter access
// sequence on s is the same length either way — the divergence comes
// purely from the cross-counter min guard.
func TestC1OrderSensitivity(t *testing.T) {
	probe := mustMultiHash(t, orderTestConfig(true))
	x, y, shared, xOnly, yOnly := sharedPair(t, probe)

	run := func(batch []event.Tuple) ([]uint64, *MultiHash) {
		m := mustMultiHash(t, orderTestConfig(true))
		for _, j := range yOnly {
			m.set.IncAt(j)
		}
		m.ObserveBatch(batch)
		return counterState(m), m
	}
	xyState, m := run([]event.Tuple{x, y})
	yxState, _ := run([]event.Tuple{y, x})

	s := shared[0]
	if xyState[s] != 2 {
		t.Errorf("order (x,y): shared counter = %d, want 2", xyState[s])
	}
	if yxState[s] != 1 {
		t.Errorf("order (y,x): shared counter = %d, want 1", yxState[s])
	}

	// The ordered reference must agree with the staged pipeline on both
	// orders — order-sensitivity is a property of C1, not a pipeline bug.
	for name, batch := range map[string][]event.Tuple{"xy": {x, y}, "yx": {y, x}} {
		ref := newRefMultiHash(t, m.cfg)
		for _, j := range yOnly {
			table, idx := j/m.set.Size(), uint32(j%m.set.Size())
			ref.banks[table].inc(idx)
		}
		for _, tp := range batch {
			ref.observe(tp)
		}
		staged := mustMultiHash(t, m.cfg)
		for _, j := range yOnly {
			staged.set.IncAt(j)
		}
		staged.ObserveBatch(batch)
		for j := 0; j < m.cfg.TotalEntries; j++ {
			table, idx := j/m.set.Size(), uint32(j%m.set.Size())
			if got, want := staged.set.GetAt(j), ref.banks[table].get(idx); got != want {
				t.Fatalf("order %s: staged counter %d = %d, reference %d", name, j, got, want)
			}
		}
	}
	_ = xOnly
}

// TestC0PermutationInvariance checks that with plain update and no
// promotions, every permutation of a batch yields the identical counter
// state on the staged pipeline.
func TestC0PermutationInvariance(t *testing.T) {
	r := xrand.New(0xC0DE)
	batch := make([]event.Tuple, 600)
	hot := make([]event.Tuple, 32)
	for i := range hot {
		hot[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	for i := range batch {
		if r.Uint64n(4) == 0 {
			batch[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
		} else {
			batch[i] = hot[r.Uint64n(32)]
		}
	}
	base := mustMultiHash(t, orderTestConfig(false))
	base.ObserveBatch(batch)
	want := counterState(base)

	perm := append([]event.Tuple(nil), batch...)
	for trial := 0; trial < 8; trial++ {
		for i := len(perm) - 1; i > 0; i-- {
			k := int(r.Uint64n(uint64(i + 1)))
			perm[i], perm[k] = perm[k], perm[i]
		}
		m := mustMultiHash(t, orderTestConfig(false))
		m.ObserveBatch(perm)
		got := counterState(m)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: counter %d = %d, want %d", trial, j, got[j], want[j])
			}
		}
	}
}

// TestC1DisjointSwapInvariance checks the reordering C1 does tolerate:
// swapping adjacent events whose counter sets are disjoint. Their guarded
// increments read and write disjoint words, so the swap commutes.
func TestC1DisjointSwapInvariance(t *testing.T) {
	probe := mustMultiHash(t, orderTestConfig(true))
	r := xrand.New(0xD15)
	// Build a batch, then find an adjacent disjoint pair to swap.
	batch := make([]event.Tuple, 64)
	for i := range batch {
		batch[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	swapped := append([]event.Tuple(nil), batch...)
	found := false
	for i := 0; i+1 < len(batch); i++ {
		a := counterOffsets(probe, batch[i])
		b := counterOffsets(probe, batch[i+1])
		disjoint := true
		for _, ja := range a {
			for _, jb := range b {
				if ja == jb {
					disjoint = false
				}
			}
		}
		if disjoint {
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no adjacent disjoint pair in 64 random tuples (hash family degenerate?)")
	}
	a := mustMultiHash(t, orderTestConfig(true))
	b := mustMultiHash(t, orderTestConfig(true))
	a.ObserveBatch(batch)
	b.ObserveBatch(swapped)
	wa, wb := counterState(a), counterState(b)
	for j := range wa {
		if wa[j] != wb[j] {
			t.Fatalf("disjoint swap changed counter %d: %d vs %d", j, wa[j], wb[j])
		}
	}
}
