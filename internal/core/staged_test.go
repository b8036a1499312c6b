package core

// Deterministic tests for the staged pipeline's ordering invariant
// (DESIGN.md §14): resident increments are deferred out of the hash-path
// commit loop, but every one that precedes a promotion must be applied
// before the promotion's Insert picks a victim, and a promotion makes the
// rest of the window's staged slots stale. Each test runs every commit
// shape (1–4 tables, C0 and C1) at batch length 1 and at batch lengths
// that keep the critical events in one staged window, and holds the
// result to the per-event reference.

import (
	"fmt"
	"testing"

	"hwprof/internal/accum"
	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// stagedOrderBatchLens are the batch lengths the ordering tests run at:
// one event per window, and windows that hold the whole critical run.
var stagedOrderBatchLens = []int{1, 64, 256}

// stagedOrderConfig is a tiny retaining shape: threshold count 3, a
// 4-entry accumulator, and tables wide enough that the handful of test
// tuples do not alias.
func stagedOrderConfig(tables int, c1 bool) Config {
	return Config{
		IntervalLength:     1000,
		ThresholdPercent:   0.3,
		TotalEntries:       256 * tables,
		NumTables:          tables,
		CounterWidth:       16,
		ConservativeUpdate: c1,
		Retain:             true,
		AccumCapacity:      4,
		Seed:               0x57A6ED,
	}
}

// stagedPair drives a staged MultiHash and the per-event reference side
// by side.
type stagedPair struct {
	t   *testing.T
	m   *MultiHash
	ref *refMultiHash
	l   int
}

func newStagedPair(t *testing.T, cfg Config, batchLen int) *stagedPair {
	t.Helper()
	if cfg.ThresholdCount() != 3 {
		t.Fatalf("threshold count %d, want 3", cfg.ThresholdCount())
	}
	m := mustMultiHash(t, cfg)
	if m.fused == nil {
		t.Fatal("configuration does not take the staged pipeline")
	}
	return &stagedPair{t: t, m: m, ref: newRefMultiHash(t, cfg), l: batchLen}
}

// feed observes events in ObserveBatch calls of the pair's batch length,
// the first call starting a fresh staged window.
func (p *stagedPair) feed(events ...event.Tuple) {
	for lo := 0; lo < len(events); lo += p.l {
		p.m.ObserveBatch(events[lo:min(lo+p.l, len(events))])
	}
	for _, tp := range events {
		p.ref.observe(tp)
	}
}

// check compares candidates now and the interval profile at the boundary.
func (p *stagedPair) check(interval int) {
	p.t.Helper()
	want, got := p.ref.acc.candidates(), p.m.Candidates()
	if fmt.Sprint(want) != fmt.Sprint(got) {
		p.t.Fatalf("interval %d: candidates %v, want %v", interval, got, want)
	}
	equalProfiles(p.t, interval, p.ref.endInterval(), p.m.EndInterval())
}

// times repeats tp n times.
func times(tp event.Tuple, n int) []event.Tuple {
	out := make([]event.Tuple, n)
	for i := range out {
		out[i] = tp
	}
	return out
}

// cat concatenates event runs.
func cat(runs ...[]event.Tuple) []event.Tuple {
	var out []event.Tuple
	for _, r := range runs {
		out = append(out, r...)
	}
	return out
}

// forEachStagedShape runs f for every commit shape and batch length.
func forEachStagedShape(t *testing.T, f func(t *testing.T, cfg Config, batchLen int)) {
	for tables := 1; tables <= 4; tables++ {
		for _, c1 := range []bool{false, true} {
			for _, l := range stagedOrderBatchLens {
				cfg := stagedOrderConfig(tables, c1)
				t.Run(fmt.Sprintf("n%d_C%d_len%d", tables, b2i(c1), l), func(t *testing.T) {
					f(t, cfg, l)
				})
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestStagedResidentIncrementsPrecedeVictimChoice pins the first half of
// the invariant. The accumulator is full: two fillers promoted this
// interval, and two retained replaceable entries tied at count 0, old
// (promoted first) and young. In one window, old occurs twice and then x
// crosses the threshold. In event order old's count is 2 when x's Insert
// picks a victim, so the victim is young; deferring old's increments past
// the Insert would evict old instead (the tie goes to the older entry).
func TestStagedResidentIncrementsPrecedeVictimChoice(t *testing.T) {
	forEachStagedShape(t, func(t *testing.T, cfg Config, batchLen int) {
		old := event.Tuple{A: 0x400100, B: 11}
		young := event.Tuple{A: 0x400200, B: 22}
		f1 := event.Tuple{A: 0x400300, B: 33}
		f2 := event.Tuple{A: 0x400400, B: 44}
		x := event.Tuple{A: 0x400500, B: 55}
		cold := event.Tuple{A: 0x400600, B: 66}

		p := newStagedPair(t, cfg, batchLen)
		p.feed(cat(times(old, 3), times(young, 3))...)
		p.check(0)
		p.feed(cat(times(f1, 3), times(f2, 3), times(x, 2))...)
		if p.m.AccumLen() != 4 || p.m.acc.Contains(x) {
			t.Fatalf("setup: accumulator holds %d entries (x resident %v), want 4 without x",
				p.m.AccumLen(), p.m.acc.Contains(x))
		}
		p.feed(old, cold, old, x, cold)
		if !p.m.acc.Contains(x) || !p.m.acc.Contains(old) || p.m.acc.Contains(young) {
			t.Fatalf("after promotion: x %v old %v young %v resident, want x and old but not young",
				p.m.acc.Contains(x), p.m.acc.Contains(old), p.m.acc.Contains(young))
		}
		if c, _ := p.m.acc.Count(old); c != 2 {
			t.Fatalf("old count %d, want 2", c)
		}
		p.check(1)
	})
}

// TestStagedRestageAfterShiftingPromotion pins the second half: a
// promotion whose eviction backward-shifts a resident entry to a new slot
// makes the window's staged slots stale. r shares v's home slot, so it
// sits one slot further down the chain; x's promotion evicts v (the only
// replaceable entry), which moves r into v's slot, and r's occurrences
// later in the same window must count at the new slot.
func TestStagedRestageAfterShiftingPromotion(t *testing.T) {
	forEachStagedShape(t, func(t *testing.T, cfg Config, batchLen int) {
		home, err := accum.New(cfg.EffectiveAccumCapacity(), cfg.ThresholdCount())
		if err != nil {
			t.Fatal(err)
		}
		// On an empty table Probe reports a tuple's home slot.
		homeOf := func(tp event.Tuple) uint32 { s, _ := home.Probe(tp); return s }
		r := xrand.New(0x5A1F7)
		next := func(ok func(uint32) bool) event.Tuple {
			for {
				tp := event.Tuple{A: r.Uint64(), B: r.Uint64()}
				if ok(homeOf(tp)) {
					return tp
				}
			}
		}
		// A 4-entry table has 8 slots; a home of at most 4 keeps the
		// slots the test reasons about (h, h+1, h+2) from wrapping.
		v := next(func(s uint32) bool { return s <= 4 })
		h := homeOf(v)
		res := next(func(s uint32) bool { return s == h })
		apart := func(s uint32) bool { return s < h || s > h+2 }
		f1, f2, x := next(apart), next(apart), next(apart)

		p := newStagedPair(t, cfg, batchLen)
		p.feed(times(v, 3)...)
		p.check(0)
		p.feed(cat(times(res, 3), times(f1, 3), times(f2, 3), times(x, 2))...)
		before, ok := p.m.acc.Probe(res)
		if !ok || before == h || p.m.AccumLen() != 4 {
			t.Fatalf("setup: r at slot %d (resident %v, v's home %d), %d entries; want r past v's home in a full table",
				before, ok, h, p.m.AccumLen())
		}
		p.feed(x, res, res)
		after, ok := p.m.acc.Probe(res)
		if !ok || after != h || p.m.acc.Contains(v) {
			t.Fatalf("after promotion: r at slot %d (resident %v), v resident %v; want r shifted to %d and v evicted",
				after, ok, p.m.acc.Contains(v), h)
		}
		if c, _ := p.m.acc.Count(res); c != 5 {
			t.Fatalf("r count %d, want 5", c)
		}
		p.check(1)
	})
}

// FuzzStagedMatchesReference holds the staged pipeline to the per-event
// reference on arbitrary streams and geometries. The first bytes choose
// the shape: 1–4 tables, C0/C1, R0/R1, P0/P1, a 1–8 entry accumulator, a
// threshold count of 1–8, 4–32 counters per table of 3–10 bits (narrow
// counters saturate), and the interval length; the next byte seeds the
// batch lengths, and every remaining byte is one event drawn from a
// 256-tuple alphabet, so tuples recur, alias, promote and evict. Profiles
// and candidate lists must match at every interval.
func FuzzStagedMatchesReference(f *testing.F) {
	f.Add([]byte{0x07, 0x13, 0x05, 0x40, 0x11, 1, 2, 3, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 1, 2})
	f.Add([]byte{0x1f, 0x00, 0x00, 0x08, 0x99, 9, 9, 9, 9, 8, 8, 8, 9, 7, 7, 7, 7, 9, 8, 6})
	f.Add([]byte{0x04, 0x3a, 0x0f, 0xff, 0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		shape, acc, geom, ilen, bseed := data[0], data[1], data[2], data[3], data[4]
		stream := data[5:]
		tables := 1 + int(shape&3)
		thresh := 1 + uint64(acc>>3&7)
		cfg := Config{
			IntervalLength:     8 + uint64(ilen),
			TotalEntries:       tables << (2 + geom&3),
			NumTables:          tables,
			CounterWidth:       3 + uint(geom>>2&7),
			ConservativeUpdate: shape&4 != 0,
			ResetOnPromote:     shape&8 != 0,
			Retain:             shape&16 != 0,
			AccumCapacity:      1 + int(acc&7),
			Seed:               uint64(shape>>5) + 1,
		}
		// thresh events as a percentage (float rounding may add one).
		cfg.ThresholdPercent = float64(thresh) * 100 / float64(cfg.IntervalLength)
		for cfg.ThresholdCount() >= uint64(1)<<cfg.CounterWidth {
			cfg.CounterWidth++
		}
		m, err := NewMultiHash(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if m.fused == nil {
			t.Fatalf("%v does not take the staged pipeline", cfg)
		}
		ref := newRefMultiHash(t, cfg)
		events := make([]event.Tuple, len(stream))
		for i, b := range stream {
			events[i] = event.Tuple{A: 0x400000 + uint64(b&0x3f)*4, B: uint64(b >> 6)}
		}
		r := xrand.New(uint64(bseed))
		interval, n := 0, uint64(0)
		for lo := 0; lo < len(events); {
			k := 1 + int(r.Uint64n(160))
			k = min(k, len(events)-lo, int(cfg.IntervalLength-n))
			batch := events[lo : lo+k]
			m.ObserveBatch(batch)
			for _, tp := range batch {
				ref.observe(tp)
			}
			lo += k
			n += uint64(k)
			if n == cfg.IntervalLength || lo == len(events) {
				want, got := ref.acc.candidates(), m.Candidates()
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Fatalf("%v interval %d: candidates %v, want %v", cfg, interval, got, want)
				}
				equalProfiles(t, interval, ref.endInterval(), m.EndInterval())
				interval, n = interval+1, 0
			}
		}
	})
}
