package core

// The staged batch pipeline (DESIGN.md §14). ObserveBatch's fused loops
// used to walk events one at a time: an accumulator probe, sixteen
// dependent hash-table loads, then n counter read-modify-writes, all
// serialized behind a poorly-predictable resident/hash-path branch, with
// every counter access re-loading the Set's epoch/width/mask through the
// pointer receiver. The staged pipeline splits the same work into passes
// over a lookahead window:
//
//  1. Stage (pure): probe accumulator residency for every event of the
//     window and partition it, branch-free, into a resident list
//     (accumulator slot + window position) and a hash-path list (window
//     position + hashfn.Fused packed index word, evaluated for these
//     events only). Nothing is mutated, so staged results are
//     discardable.
//  2. Commit (ordered): walk the hash-path list in event order against a
//     counter.Hot view, doing each event's n counter updates with all Set
//     invariants held in registers; then apply the resident list's
//     deferred exact-count increments in a second tight loop. The only
//     reader of those counts on the hash path is a promotion's victim
//     choice, so a crossing event first applies the resident increments
//     that precede it.
//
// Staleness is the correctness crux: staged residency is valid only while
// the accumulator's membership is unchanged, and membership changes exactly
// at a successful promotion (an Insert adds the tuple and may evict a
// victim, and its backward-shift delete may move slots). The commit loop
// therefore stops at the first successful Insert and reports how many
// events it consumed; the driver restages the rest of the window. Staging
// is pure, so a restage costs only recomputed probes and hashes — there is
// never anything to roll back; the suffix's resident increments were not
// applied yet, so they are staged again with fresh slots. Promotions are bounded per interval by the
// accumulator's own capacity argument (§5.1), so restages are rare and the
// steady state runs whole windows.
//
// Conservative update (C1) is inherently order-sensitive across events
// that share a counter (see TestC1OrderSensitivity and DESIGN.md §14), so
// every commit loop walks the window in event order.

import (
	"hwprof/internal/counter"
	"hwprof/internal/event"
	"hwprof/internal/hashfn"
)

// stagedWindow is the lookahead window length: how far the stage pass
// runs ahead of the commit cursor. Long enough that the stage pass's
// independent loads overlap, short enough that a restage after a
// promotion stays cheap. A window position fits in one byte.
const stagedWindow = 64

// stagedScratch is the per-profiler scratch of the staged pipeline: one
// window's residency partition, held inline in the MultiHash so the
// pipeline never allocates.
//
// The stage pass compacts the window into two lists, each in event order.
// Hash-path event k has its fused index word in packed[k] and its window
// position in pos[k]; resident event k has its accumulator slot in res[k]
// and its window position in pos[stagedWindow-1-k]. The two position
// lists fill pos from opposite ends and together hold exactly one entry
// per window event, so they never overlap.
type stagedScratch struct {
	packed [stagedWindow]uint64
	res    [stagedWindow]uint32
	pos    [stagedWindow]uint8
}

// stage partitions win by accumulator residency and evaluates the fused
// hash for the hash-path events only, returning the two list lengths.
// The partition is branch-free: every event is written to both lists
// and only the matching list's length advances. (The position written to
// the other list lands in a cell that list has not claimed: both cursors
// together have consumed w cells of pos, so the spare write can only
// meet the other list at the last position, where it writes the same
// value.) Pure: the accumulator and counters are not touched, so a stale
// window can simply be staged again.
func (m *MultiHash) stage(win []event.Tuple) (nh, nr int) {
	sc := &m.sc
	acc := m.acc
	for w, tp := range win {
		s, ok := acc.Probe(tp)
		r := 0
		if ok {
			r = 1
		}
		sc.res[nr&(stagedWindow-1)] = s
		sc.pos[nh&(stagedWindow-1)] = uint8(w)
		sc.pos[(stagedWindow-1-nr)&(stagedWindow-1)] = uint8(w)
		nr += r
		nh += 1 - r
	}
	fu := m.fused
	packed := sc.packed[:nh]
	for k, w := range sc.pos[:nh] {
		packed[k] = fu.Packed(win[w])
	}
	return nh, nr
}

// incResidents applies the staged resident increments from cursor rc on
// whose window position is below lim, and returns the advanced cursor.
// Shielded resident events touch only the accumulator's exact counts,
// which nothing on the hash path reads except a promotion's victim
// choice, so the commit loops defer them: before each Insert they apply
// every resident increment that precedes the promoting event, and at
// window end the rest, in one tight loop.
func (m *MultiHash) incResidents(rc, nr, lim int) int {
	sc, acc := &m.sc, m.acc
	for ; rc < nr && int(sc.pos[stagedWindow-1-rc]) < lim; rc++ {
		acc.IncSlot(sc.res[rc])
	}
	return rc
}

// observeStagedConservative drives the staged pipeline for shielded C1
// configurations: stage a window, commit it in event order, restage from
// the first promotion.
func (m *MultiHash) observeStagedConservative(batch []event.Tuple, hot counter.Hot) {
	n := m.fused.Len()
	for lo := 0; lo < len(batch); {
		win := batch[lo:min(lo+stagedWindow, len(batch))]
		nh, nr := m.stage(win)
		if n == 4 {
			lo += m.commitConservative4(win, hot, nh, nr)
		} else {
			lo += m.commitConservativeN(win, hot, nh, nr, n)
		}
	}
}

// observeStagedPlain is the C0 counterpart.
func (m *MultiHash) observeStagedPlain(batch []event.Tuple, hot counter.Hot) {
	n := m.fused.Len()
	for lo := 0; lo < len(batch); {
		win := batch[lo:min(lo+stagedWindow, len(batch))]
		nh, nr := m.stage(win)
		switch n {
		case 4:
			lo += m.commitPlain4(win, hot, nh, nr)
		case 1:
			lo += m.commitPlain1(win, hot, nh, nr)
		default:
			lo += m.commitPlainN(win, hot, nh, nr, n)
		}
	}
}

// Every commit loop below walks the window's nh hash-path events in event
// order and returns the number of window events consumed: the whole
// window, or up to and including the first successful promotion (after
// which the staged suffix is stale, resident slots included, and the
// driver restages it). A crossing event first applies the resident
// increments that precede it (incResidents), so the Insert's victim
// choice sees exactly the counts the per-event order gives it.

// commitPlain1 is the single-hash architecture's commit: one counter, no
// minimum to form.
func (m *MultiHash) commitPlain1(win []event.Tuple, hot counter.Hot, nh, nr int) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	pos := sc.pos[:nh]
	rc := 0
	for k, p := range sc.packed[:nh] {
		j := p & hashfn.FusedMask
		var v uint32
		if wd := words[j]; wd&^cmask == etag {
			v = wd & cmask
		}
		if v < max {
			v++
		}
		words[j] = etag | v
		if v < thresh {
			continue
		}
		w := int(pos[k])
		rc = m.incResidents(rc, nr, w)
		if acc.Insert(win[w], uint64(v)) {
			if reset {
				words[j] = etag
			}
			return w + 1
		}
	}
	m.incResidents(rc, nr, stagedWindow)
	return len(win)
}

// commitConservative4 commits a staged window under conservative update
// with the paper's 4-table shape, fully unrolled.
//
// Per hash-path event: four counter loads, a branch-light 4-way minimum,
// and a select-then-store of every counter: the minimum-valued ones take
// the updated count, the others their own word back. The four counters
// live in disjoint tables, so rewriting an unchanged word is exact, and
// the selects compile to conditional moves instead of four
// data-dependent branches.
func (m *MultiHash) commitConservative4(win []event.Tuple, hot counter.Hot, nh, nr int) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	pos := sc.pos[:nh]
	rc := 0
	for k, p := range sc.packed[:nh] {
		j0 := int(p & hashfn.FusedMask)
		j1 := size + int((p>>16)&hashfn.FusedMask)
		j2 := 2*size + int((p>>32)&hashfn.FusedMask)
		j3 := 3*size + int(p>>48)
		w0, w1, w2, w3 := words[j0], words[j1], words[j2], words[j3]
		var v0, v1, v2, v3 uint32
		if w0&^cmask == etag {
			v0 = w0 & cmask
		}
		if w1&^cmask == etag {
			v1 = w1 & cmask
		}
		if w2&^cmask == etag {
			v2 = w2 & cmask
		}
		if w3&^cmask == etag {
			v3 = w3 & cmask
		}
		min := v0
		if v1 < min {
			min = v1
		}
		if v2 < min {
			min = v2
		}
		if v3 < min {
			min = v3
		}
		// Every counter at the pre-update minimum advances by one
		// (saturation aside), so the updated minimum is min+1.
		nv := min
		if nv < max {
			nv++
		}
		up := etag | nv
		x0, x1, x2, x3 := w0, w1, w2, w3
		if v0 == min {
			x0 = up
		}
		if v1 == min {
			x1 = up
		}
		if v2 == min {
			x2 = up
		}
		if v3 == min {
			x3 = up
		}
		words[j0], words[j1], words[j2], words[j3] = x0, x1, x2, x3
		if nv < thresh {
			continue
		}
		w := int(pos[k])
		rc = m.incResidents(rc, nr, w)
		if acc.Insert(win[w], uint64(nv)) {
			if reset {
				words[j0] = etag
				words[j1] = etag
				words[j2] = etag
				words[j3] = etag
			}
			return w + 1 // membership changed: staged suffix is stale
		}
	}
	m.incResidents(rc, nr, stagedWindow)
	return len(win)
}

// commitConservativeN is commitConservative4 for the other fusable shapes
// (1–3 tables).
func (m *MultiHash) commitConservativeN(win []event.Tuple, hot counter.Hot, nh, nr, n int) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	pos := sc.pos[:nh]
	rc := 0
	var js [4]int
	var ws, vs [4]uint32
	for k, p := range sc.packed[:nh] {
		min := ^uint32(0)
		base := 0
		for t := 0; t < n; t++ {
			j := base + int(p&hashfn.FusedMask)
			js[t] = j
			wd := words[j]
			ws[t] = wd
			var v uint32
			if wd&^cmask == etag {
				v = wd & cmask
			}
			vs[t] = v
			if v < min {
				min = v
			}
			p >>= 16
			base += size
		}
		nv := min
		if nv < max {
			nv++
		}
		up := etag | nv
		for t := 0; t < n; t++ {
			x := ws[t]
			if vs[t] == min {
				x = up
			}
			words[js[t]] = x
		}
		if nv < thresh {
			continue
		}
		w := int(pos[k])
		rc = m.incResidents(rc, nr, w)
		if acc.Insert(win[w], uint64(nv)) {
			if reset {
				for t := 0; t < n; t++ {
					words[js[t]] = etag
				}
			}
			return w + 1
		}
	}
	m.incResidents(rc, nr, stagedWindow)
	return len(win)
}

// commitPlain4 commits a staged window under plain (C0) update with the
// 4-table shape: every counter increments and the promotion minimum falls
// out of the increment pass.
func (m *MultiHash) commitPlain4(win []event.Tuple, hot counter.Hot, nh, nr int) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	pos := sc.pos[:nh]
	rc := 0
	for k, p := range sc.packed[:nh] {
		j0 := int(p & hashfn.FusedMask)
		j1 := size + int((p>>16)&hashfn.FusedMask)
		j2 := 2*size + int((p>>32)&hashfn.FusedMask)
		j3 := 3*size + int(p>>48)
		w0, w1, w2, w3 := words[j0], words[j1], words[j2], words[j3]
		var v0, v1, v2, v3 uint32
		if w0&^cmask == etag {
			v0 = w0 & cmask
		}
		if w1&^cmask == etag {
			v1 = w1 & cmask
		}
		if w2&^cmask == etag {
			v2 = w2 & cmask
		}
		if w3&^cmask == etag {
			v3 = w3 & cmask
		}
		if v0 < max {
			v0++
		}
		if v1 < max {
			v1++
		}
		if v2 < max {
			v2++
		}
		if v3 < max {
			v3++
		}
		words[j0] = etag | v0
		words[j1] = etag | v1
		words[j2] = etag | v2
		words[j3] = etag | v3
		min := v0
		if v1 < min {
			min = v1
		}
		if v2 < min {
			min = v2
		}
		if v3 < min {
			min = v3
		}
		if min < thresh {
			continue
		}
		w := int(pos[k])
		rc = m.incResidents(rc, nr, w)
		if acc.Insert(win[w], uint64(min)) {
			if reset {
				words[j0] = etag
				words[j1] = etag
				words[j2] = etag
				words[j3] = etag
			}
			return w + 1
		}
	}
	m.incResidents(rc, nr, stagedWindow)
	return len(win)
}

// commitPlainN is commitPlain4 for the other fusable shapes (2–3 tables).
func (m *MultiHash) commitPlainN(win []event.Tuple, hot counter.Hot, nh, nr, n int) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	pos := sc.pos[:nh]
	rc := 0
	var js [4]int
	for k, p := range sc.packed[:nh] {
		min := ^uint32(0)
		base := 0
		for t := 0; t < n; t++ {
			j := base + int(p&hashfn.FusedMask)
			js[t] = j
			var v uint32
			if wd := words[j]; wd&^cmask == etag {
				v = wd & cmask
			}
			if v < max {
				v++
			}
			words[j] = etag | v
			if v < min {
				min = v
			}
			p >>= 16
			base += size
		}
		if min < thresh {
			continue
		}
		w := int(pos[k])
		rc = m.incResidents(rc, nr, w)
		if acc.Insert(win[w], uint64(min)) {
			if reset {
				for t := 0; t < n; t++ {
					words[js[t]] = etag
				}
			}
			return w + 1
		}
	}
	m.incResidents(rc, nr, stagedWindow)
	return len(win)
}
