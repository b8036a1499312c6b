package core

// Differential coverage for the staged batch pipeline beyond the aligned,
// power-of-two batches of differential_test.go: odd and prime batch
// lengths (windows that never line up with stagedWindow), single-event
// batches, streams long enough to wrap the counter set's flush epoch tag,
// and deep counter geometries.

import (
	"fmt"
	"testing"

	"hwprof/internal/event"
)

// runDifferentialChunked feeds the same stream to the optimized MultiHash
// (in batches whose lengths cycle through batchLens within each interval)
// and to the seed reference (per event), comparing candidates and interval
// profiles after every interval.
func runDifferentialChunked(t *testing.T, cfg Config, streamSeed uint64, intervals int, batchLens []int) {
	t.Helper()
	opt, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatalf("NewMultiHash: %v", err)
	}
	ref := newRefMultiHash(t, cfg)
	intervalLen := int(cfg.IntervalLength)
	stream := diffWorkload(streamSeed, intervals*intervalLen)
	bi := 0
	for iv := 0; iv < intervals; iv++ {
		rest := stream[iv*intervalLen : (iv+1)*intervalLen]
		for len(rest) > 0 {
			n := batchLens[bi%len(batchLens)]
			bi++
			if n > len(rest) {
				n = len(rest)
			}
			opt.ObserveBatch(rest[:n])
			rest = rest[n:]
		}
		for _, tp := range stream[iv*intervalLen : (iv+1)*intervalLen] {
			ref.observe(tp)
		}
		wantCand := ref.acc.candidates()
		gotCand := opt.Candidates()
		if len(wantCand) != len(gotCand) {
			t.Fatalf("interval %d: %d candidates, want %d", iv, len(gotCand), len(wantCand))
		}
		for i := range wantCand {
			if wantCand[i] != gotCand[i] {
				t.Fatalf("interval %d: candidate %d = %v, want %v", iv, i, gotCand[i], wantCand[i])
			}
		}
		equalProfiles(t, iv, ref.endInterval(), opt.EndInterval())
	}
}

// TestDifferentialBatchLengths runs odd and prime batch lengths — none a
// multiple or divisor of the staged window — through the C0 and C1
// pipelines, and through observeGeneric for counters too wide to pack.
func TestDifferentialBatchLengths(t *testing.T) {
	primes := []int{1, 2, 3, 5, 7, 13, 127, 251, 509, 513}
	cases := []struct {
		name   string
		tables int
		c1     bool
		width  uint
	}{
		{"multi4_C1", 4, true, 8},
		{"multi4_C0", 4, false, 8},
		{"single_C0", 1, false, 8},
		{"multi4_C1_wide", 4, true, 32},
		{"multi4_C0_wide", 4, false, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				IntervalLength:     2000,
				ThresholdPercent:   1,
				TotalEntries:       256,
				NumTables:          tc.tables,
				CounterWidth:       tc.width,
				ConservativeUpdate: tc.c1,
				ResetOnPromote:     true,
				Retain:             true,
				Seed:               0x5EED,
			}
			runDifferentialChunked(t, cfg, 0xFACE, 4, primes)
		})
	}
}

// TestDifferentialSingleEventBatches drives every event as its own batch:
// the degenerate window where staging overhead dominates and every
// promotion is a window boundary.
func TestDifferentialSingleEventBatches(t *testing.T) {
	for _, c1 := range []bool{true, false} {
		c1 := c1
		name := "C0"
		if c1 {
			name = "C1"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				IntervalLength:     1000,
				ThresholdPercent:   1,
				TotalEntries:       256,
				NumTables:          4,
				CounterWidth:       8,
				ConservativeUpdate: c1,
				ResetOnPromote:     true,
				Retain:             true,
				Seed:               0x51E5,
			}
			runDifferentialChunked(t, cfg, 0x0DD1, 3, []int{1})
		})
	}
}

// TestDifferentialFlushGenerationWrap runs enough intervals to wrap the
// packed counter set's epoch tag (width 24 leaves 8 tag bits, so flush
// 255 forces the real sweep) and crosses every interval boundary with
// misaligned batch lengths. The reference flushes eagerly, so any stale
// tag surviving the wrap shows up as a profile divergence.
func TestDifferentialFlushGenerationWrap(t *testing.T) {
	for _, tc := range []struct {
		name string
		c1   bool
	}{
		{"C1_staged", true},
		{"C0_staged", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				IntervalLength:     96,
				ThresholdPercent:   5,
				TotalEntries:       256,
				NumTables:          4,
				CounterWidth:       24, // 8 tag bits: epoch wraps at flush 255
				ConservativeUpdate: tc.c1,
				ResetOnPromote:     true,
				Retain:             true,
				Seed:               0xF1A5,
			}
			runDifferentialChunked(t, cfg, 0x3A9, 300, []int{31, 17, 7})
		})
	}
}

// TestDifferentialBankedMultiBank runs every policy combination over
// 4×8192 = 32768 counters, the multi-bank geometry the deleted
// bank-bucketed sweep was proved exact on (eight 16 KB banks). The staged
// pipeline now runs it for the shielded masks and observeGeneric for the
// NoShield ones, which keeps the dispatch itself under differential test.
func TestDifferentialBankedMultiBank(t *testing.T) {
	const intervalLen = 2000
	for mask := 0; mask < 16; mask++ {
		mask := mask
		name := fmt.Sprintf("C%d_R%d_P%d_S%d", mask&1, (mask>>1)&1, (mask>>2)&1, 1-(mask>>3)&1)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				IntervalLength:     intervalLen,
				ThresholdPercent:   1,
				TotalEntries:       32768,
				NumTables:          4,
				CounterWidth:       8,
				ConservativeUpdate: mask&1 != 0,
				ResetOnPromote:     mask&2 != 0,
				Retain:             mask&4 != 0,
				NoShield:           mask&8 != 0,
				Seed:               0xBA12 + uint64(mask),
			}
			runDifferentialChunked(t, cfg, 0xBA2E^uint64(mask), 3, []int{509, 513, 127})
		})
	}
}

// TestDifferentialBankedDeepGeometry runs the staged C0 pipeline over
// 4×32768 = 128Ki counters, the deep geometry (32 banks of 16 KB) where
// the deleted bank-bucketed sweep was measured against the ordered loop.
func TestDifferentialBankedDeepGeometry(t *testing.T) {
	cfg := Config{
		IntervalLength:   4000,
		ThresholdPercent: 1,
		TotalEntries:     1 << 17,
		NumTables:        4,
		CounterWidth:     8,
		ResetOnPromote:   true,
		Retain:           true,
		Seed:             0xDEE9,
	}
	runDifferentialChunked(t, cfg, 0xDEE9, 3, []int{2048, 251, 4000})
}

// TestDifferentialBatchSpanningFlush reproduces the driver pattern where a
// single logical stream is chopped into DefaultBatchSize batches that do
// not align with interval boundaries: the profiler's interval state (epoch
// flush, retained entries) changes between two halves of what the caller
// thinks of as one batch sequence.
func TestDifferentialBatchSpanningFlush(t *testing.T) {
	cfg := Config{
		IntervalLength:     768, // 1.5 × DefaultBatchSize
		ThresholdPercent:   2,
		TotalEntries:       256,
		NumTables:          4,
		CounterWidth:       16,
		ConservativeUpdate: true,
		Retain:             true,
		Seed:               0x9A7,
	}
	opt, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatalf("NewMultiHash: %v", err)
	}
	ref := newRefMultiHash(t, cfg)
	const intervals = 8
	stream := diffWorkload(0x5AA5, intervals*int(cfg.IntervalLength))
	var sinceFlush uint64
	for lo := 0; lo < len(stream); lo += event.DefaultBatchSize {
		hi := lo + event.DefaultBatchSize
		if hi > len(stream) {
			hi = len(stream)
		}
		// A batch may straddle the interval boundary: split it exactly
		// where the reference flushes, as RunBatched does.
		batch := stream[lo:hi]
		for len(batch) > 0 {
			room := cfg.IntervalLength - sinceFlush
			n := uint64(len(batch))
			if n > room {
				n = room
			}
			opt.ObserveBatch(batch[:n])
			for _, tp := range batch[:n] {
				ref.observe(tp)
			}
			sinceFlush += n
			if sinceFlush == cfg.IntervalLength {
				equalProfiles(t, lo, ref.endInterval(), opt.EndInterval())
				sinceFlush = 0
			}
			batch = batch[n:]
		}
	}
}
