// Package counter models the fixed-width saturating counter banks that back
// the paper's hash tables.
//
// The paper's configuration uses 2K entries of 3-byte counters (6 KB total,
// §7). A hardware counter cannot exceed its width, so counters saturate at
// 2^width − 1 rather than wrapping; wrapping would silently turn a heavy
// hitter into a light one, which no hardware designer would ship.
//
// # Data layout
//
// For widths up to 24 bits (the paper's default) a counter is packed into
// one uint32 word: the count in the low width bits and an epoch tag in the
// remaining high bits. The end-of-interval flush is then O(1) — bump the
// epoch, and every counter whose tag no longer matches reads as zero —
// instead of zeroing thousands of words per interval; a full sweep happens
// only when the tag wraps (every 2^(32−width) flushes). This mirrors the
// silicon trick of lazy SRAM clearing via a generation bit, and keeps the
// modeled 2K-counter store in 8 KB of contiguous memory instead of 16 KB
// of spread-out uint64 words. Widths above 24 bits fall back to a plain
// uint64 array with an eager flush.
//
// A multi-table profiler should allocate all its banks as one Set: the
// n tables then share a single contiguous backing array (per-bank offsets)
// and one epoch, so the per-event n-table loop walks one cache-friendly
// allocation and the interval flush is a single epoch bump.
package counter

import "fmt"

// DefaultWidth is the counter width used throughout the paper: 3 bytes.
const DefaultWidth = 24

// maxPackedWidth is the widest counter the packed representation holds:
// width bits of count must leave at least 8 bits of epoch tag in a uint32.
const maxPackedWidth = 24

// Set is n same-shaped banks of saturating counters in one contiguous
// backing array, flushed together by a shared epoch. Bank t's counter i
// lives at flat offset t*Size() + i.
type Set struct {
	tables int
	size   int
	width  uint
	max    uint64

	// Packed path (width <= maxPackedWidth).
	words    []uint32
	cmask    uint32 // low-width count mask
	epoch    uint32 // current generation; tags != epoch read as zero
	epochMax uint32 // largest representable tag; wrapping forces a sweep

	// Fallback path (width > maxPackedWidth): plain words, eager flush.
	wide []uint64
}

// NewSet returns tables banks of size counters each, width bits wide,
// sharing one backing array and one flush epoch. width must be in
// [1, 64]; tables and size must be positive.
func NewSet(tables, size int, width uint) (*Set, error) {
	if tables <= 0 {
		return nil, fmt.Errorf("counter: table count %d must be positive", tables)
	}
	if size <= 0 {
		return nil, fmt.Errorf("counter: bank size %d must be positive", size)
	}
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("counter: width %d out of range [1,64]", width)
	}
	max := ^uint64(0)
	if width < 64 {
		max = 1<<width - 1
	}
	s := &Set{tables: tables, size: size, width: width, max: max}
	if width <= maxPackedWidth {
		s.words = make([]uint32, tables*size)
		s.cmask = uint32(1)<<width - 1
		s.epochMax = uint32(1)<<(32-width) - 1
	} else {
		s.wide = make([]uint64, tables*size)
	}
	return s, nil
}

// Tables returns the number of banks in the set.
func (s *Set) Tables() int { return s.tables }

// Size returns the number of counters per bank.
func (s *Set) Size() int { return s.size }

// Width returns the counter width in bits.
func (s *Set) Width() uint { return s.width }

// Max returns the saturation value, 2^width − 1.
func (s *Set) Max() uint64 { return s.max }

// Base returns the flat offset of bank t, for hot loops that precompute
// GetAt/IncAt indexes.
func (s *Set) Base(t int) int { return t * s.size }

// GetAt returns the value of the counter at flat offset j.
func (s *Set) GetAt(j int) uint64 {
	if s.wide != nil {
		return s.wide[j]
	}
	w := s.words[j]
	if w>>s.width != s.epoch {
		return 0
	}
	return uint64(w & s.cmask)
}

// IncAt increments the counter at flat offset j by 1, saturating at Max,
// and returns the new value.
func (s *Set) IncAt(j int) uint64 {
	if s.wide != nil {
		if s.wide[j] < s.max {
			s.wide[j]++
		}
		return s.wide[j]
	}
	w := s.words[j]
	var c uint32
	if w>>s.width == s.epoch {
		c = w & s.cmask
	}
	if uint64(c) < s.max {
		c++
	}
	s.words[j] = s.epoch<<s.width | c
	return uint64(c)
}

// AddAt increments the counter at flat offset j by delta, saturating at
// Max, and returns the new value.
func (s *Set) AddAt(j int, delta uint64) uint64 {
	if s.wide != nil {
		c := s.wide[j]
		if delta > s.max-c {
			c = s.max
		} else {
			c += delta
		}
		s.wide[j] = c
		return c
	}
	w := s.words[j]
	var c uint64
	if w>>s.width == s.epoch {
		c = uint64(w & s.cmask)
	}
	if delta > s.max-c {
		c = s.max
	} else {
		c += delta
	}
	s.words[j] = s.epoch<<s.width | uint32(c)
	return c
}

// ResetAt zeroes the counter at flat offset j.
func (s *Set) ResetAt(j int) {
	if s.wide != nil {
		s.wide[j] = 0
		return
	}
	s.words[j] = s.epoch << s.width
}

// Hot is a borrowed register-friendly view of a packed Set for specialized
// batch loops. GetAt/IncAt on the Set itself reload the epoch, width and
// mask through the pointer receiver on every call — and the compiler must
// assume any counter store may alias them — so an n-table hot loop pays
// those loads up to 3n times per event. A Hot value copies the invariants
// into locals once per batch, so the loops keep everything in registers.
//
// A Hot view is valid until the next Flush (the epoch tag it carries goes
// stale). The batched observation loops take a fresh view per batch, and
// batches never span a Flush.
type Hot struct {
	// Words is the packed counter array: bank t's counter i at t*Size+i.
	Words []uint32
	// ETag is the current epoch tag pre-shifted into tag position: a word
	// w holds a live count iff w &^ CMask == ETag, and storing ETag | c
	// writes count c at the current generation.
	ETag uint32
	// CMask masks the count bits out of a word.
	CMask uint32
	// Max is the saturation value (fits in uint32: packed widths are <= 24).
	Max uint32
}

// Hot returns the packed hot-loop view, or ok == false on the wide
// (width > 24) fallback path, which keeps the pointer-receiver surface.
func (s *Set) Hot() (Hot, bool) {
	if s.wide != nil {
		return Hot{}, false
	}
	return Hot{
		Words: s.words,
		ETag:  s.epoch << s.width,
		CMask: s.cmask,
		Max:   uint32(s.max),
	}, true
}

// Get returns the value of bank t's counter i.
func (s *Set) Get(t int, i uint32) uint64 { return s.GetAt(t*s.size + int(i)) }

// Inc increments bank t's counter i by 1, saturating at Max, and returns
// the new value.
func (s *Set) Inc(t int, i uint32) uint64 { return s.IncAt(t*s.size + int(i)) }

// Add increments bank t's counter i by delta, saturating at Max, and
// returns the new value.
func (s *Set) Add(t int, i uint32, delta uint64) uint64 {
	return s.AddAt(t*s.size+int(i), delta)
}

// Reset zeroes bank t's counter i.
func (s *Set) Reset(t int, i uint32) { s.ResetAt(t*s.size + int(i)) }

// Flush zeroes every counter of every bank (the end-of-interval hash-table
// flush). On the packed path this is O(1): the epoch advances and stale
// tags read as zero; only a wrapped tag forces a real sweep.
func (s *Set) Flush() {
	if s.wide != nil {
		clear(s.wide)
		return
	}
	if s.epoch == s.epochMax {
		clear(s.words)
		s.epoch = 0
		return
	}
	s.epoch++
}

// Bytes returns the storage the set occupies in a hardware realization:
// Tables × Size × width bits, rounded up to whole bytes per counter as the
// paper does (3-byte counters).
func (s *Set) Bytes() int {
	perCounter := (int(s.width) + 7) / 8
	return s.tables * s.size * perCounter
}

// Bank is a single bank of saturating counters of a fixed bit width: a
// one-table Set, kept as the standalone surface for callers that do not
// batch several tables together.
type Bank struct {
	set *Set
}

// NewBank returns a bank of size counters, each width bits wide.
// width must be in [1, 64]; size must be positive.
func NewBank(size int, width uint) (*Bank, error) {
	s, err := NewSet(1, size, width)
	if err != nil {
		return nil, err
	}
	return &Bank{set: s}, nil
}

// Len returns the number of counters in the bank.
func (b *Bank) Len() int { return b.set.size }

// Width returns the counter width in bits.
func (b *Bank) Width() uint { return b.set.width }

// Max returns the saturation value, 2^width − 1.
func (b *Bank) Max() uint64 { return b.set.max }

// Get returns the value of counter i.
func (b *Bank) Get(i uint32) uint64 { return b.set.GetAt(int(i)) }

// Inc increments counter i by 1, saturating at Max, and returns the new
// value.
func (b *Bank) Inc(i uint32) uint64 { return b.set.IncAt(int(i)) }

// Add increments counter i by delta, saturating at Max, and returns the new
// value.
func (b *Bank) Add(i uint32, delta uint64) uint64 { return b.set.AddAt(int(i), delta) }

// Reset zeroes counter i.
func (b *Bank) Reset(i uint32) { b.set.ResetAt(int(i)) }

// Flush zeroes every counter (the end-of-interval hash-table flush) —
// O(1) on the packed path, see Set.Flush.
func (b *Bank) Flush() { b.set.Flush() }

// Bytes returns the storage this bank occupies in a hardware realization:
// Len × width bits, rounded up to whole bytes per counter as the paper does
// (3-byte counters).
func (b *Bank) Bytes() int { return b.set.Bytes() }
