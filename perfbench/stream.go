package main

import (
	"fmt"

	"hwprof"
	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// streamFamily is the synthetic benchmark analog every workload draws
// its events from.
const streamFamily = "gcc"

// streamSeed derives the seed of stream i of a run from the run's seed,
// so a daemon's two sessions carry different programs' streams.
func streamSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return xrand.Mix64(seed ^ uint64(i)<<32)
}

// generate pre-generates n events of the gcc analog under seed.
func generate(seed uint64, n int) ([]event.Tuple, error) {
	src, err := hwprof.NewWorkload(streamFamily, hwprof.KindValue, seed)
	if err != nil {
		return nil, err
	}
	out := make([]event.Tuple, n)
	for i := range out {
		tp, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("%s stream ended after %d of %d events", streamFamily, i, n)
		}
		out[i] = tp
	}
	return out, nil
}

// streamDigest is an order-sensitive 64-bit digest of a stream.
func streamDigest(s []event.Tuple) uint64 {
	h := uint64(len(s))
	for _, tp := range s {
		h = xrand.Mix64(h ^ tp.A)
		h = xrand.Mix64(h ^ tp.B)
	}
	return h
}

// seedCheckLen is how many events the seed check regenerates.
const seedCheckLen = 1 << 16

// checkSeeds verifies that regenerating the start of stream under its
// seed reproduces it, and that the next seed gives a different stream.
func checkSeeds(stream []event.Tuple, seed uint64) (same, different uint64, err error) {
	n := seedCheckLen
	if n > len(stream) {
		n = len(stream)
	}
	want := streamDigest(stream[:n])
	again, err := generate(seed, n)
	if err != nil {
		return 0, 0, err
	}
	if got := streamDigest(again); got != want {
		return 0, 0, fmt.Errorf("seed %d regenerated stream digest %#x, first %#x", seed, got, want)
	}
	other, err := generate(seed+1, n)
	if err != nil {
		return 0, 0, err
	}
	diff := streamDigest(other)
	if diff == want {
		return 0, 0, fmt.Errorf("seeds %d and %d give the same stream digest %#x", seed, seed+1, want)
	}
	return want, diff, nil
}

// profileDigest is an order-independent 64-bit digest of an interval
// profile: equal profiles give equal digests, and profiles differing in
// any tuple or count differ with probability 1 − 2⁻⁶⁴.
func profileDigest(m map[event.Tuple]uint64) uint64 {
	h := xrand.Mix64(uint64(len(m)))
	for tp, c := range m {
		h += xrand.Mix64(xrand.Mix64(xrand.Mix64(tp.A)^tp.B) ^ c)
	}
	return h
}

// cyclic is a BatchSource over a stream repeated end to end, bounded at
// limit events.
type cyclic struct {
	stream []event.Tuple
	pos    uint64
	limit  uint64
}

func (c *cyclic) Next() (event.Tuple, bool) {
	var one [1]event.Tuple
	if c.NextBatch(one[:]) == 0 {
		return event.Tuple{}, false
	}
	return one[0], true
}

func (c *cyclic) NextBatch(buf []event.Tuple) int {
	n := 0
	for n < len(buf) && c.pos < c.limit {
		off := c.pos % uint64(len(c.stream))
		k := copy(buf[n:], c.stream[off:])
		if rest := c.limit - c.pos; uint64(k) > rest {
			k = int(rest)
		}
		n += k
		c.pos += uint64(k)
	}
	return n
}

func (c *cyclic) Err() error { return nil }

// chunkAt returns chunk j (of size n) of stream repeated end to end;
// len(stream) must be a multiple of n.
func chunkAt(stream []event.Tuple, n, j int) []event.Tuple {
	off := (j * n) % len(stream)
	return stream[off : off+n]
}
