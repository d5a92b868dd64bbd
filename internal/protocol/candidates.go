package protocol

import (
	mathbits "math/bits"
	"slices"

	"continustreaming/internal/buffer"
	"continustreaming/internal/overlay"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
)

// NeighbourMap is one connected neighbour's advertised buffer map together
// with the requester's estimated receiving rate from it (R_ij).
type NeighbourMap struct {
	ID   overlay.NodeID
	Rate float64
	Map  buffer.Map
}

// CandidateScratch is the enumerator's reusable working storage. The
// candidates Candidates returns (and their supplier subslices) are carved
// from it and stay valid until the next Candidates call on the same
// scratch.
type CandidateScratch struct {
	union   []uint64
	own     []uint64
	shifted []uint64
	live    []liveMap
	sup     []scheduler.Supplier
	cands   []scheduler.Candidate
	nShift  int
}

// Shifted reports how many maps (the node's own included) the scratch has
// funnel-shifted into a frame since it was created: maps that did not
// open at the frame origin with at least the frame's width. A runtime
// whose maps all share the playback origin keeps it at zero.
func (sc *CandidateScratch) Shifted() int { return sc.nShift }

// liveMap is one neighbour's availability words in frame coordinates.
type liveMap struct {
	id   overlay.NodeID
	rate float64
	bits []uint64
	// tail is the position-from-tail of frame bit 0 in this map, so frame
	// bit k sits at position tail-k.
	tail int
}

// Candidates enumerates the segments of frame that are fresh to a node
// (§4.2): advertised by at least one neighbour, absent from the node's
// own map, and not pending (pending may be nil). Each candidate lists its
// suppliers with their rates and FIFO positions-from-tail. Candidates come
// out with IDs ascending and suppliers in nbrs order, which callers keep
// ascending by neighbour ID.
//
// The work runs a word at a time in frame coordinates. A map that opens
// at the frame origin and spans the frame aliases its words; any other
// map is funnel-shifted into scratch words once per call. The fresh set
// is the union of neighbour words minus the node's own words, and the
// supplier lists fill from per-lane holder counts kept in bit-sliced
// counter planes.
func Candidates(sc *CandidateScratch, frame segment.Window, own buffer.Map, nbrs []NeighbourMap, pending func(segment.ID) bool) []scheduler.Candidate {
	width := int(frame.Hi - frame.Lo)
	if width <= 0 || len(nbrs) == 0 {
		return nil
	}
	nWords := (width + 63) / 64
	sc.union = slices.Grow(sc.union[:0], nWords)[:nWords]
	union := sc.union
	clear(union)
	sc.shifted = slices.Grow(sc.shifted[:0], len(nbrs)*nWords)[:len(nbrs)*nWords]
	shifted := sc.shifted
	live := sc.live[:0]
	for _, nb := range nbrs {
		m := nb.Map
		bits := m.Bits
		if !aliases(m, frame.Lo, width) {
			bits, shifted = shifted[:nWords:nWords], shifted[nWords:]
			shiftInto(bits, m, frame.Lo)
			sc.nShift++
		}
		for wi := range union {
			union[wi] |= bits[wi]
		}
		live = append(live, liveMap{id: nb.ID, rate: nb.Rate, bits: bits, tail: int(m.Lo-frame.Lo) + m.Size})
	}
	sc.live = live
	ownBits := own.Bits
	if !aliases(own, frame.Lo, width) {
		sc.own = slices.Grow(sc.own[:0], nWords)[:nWords]
		ownBits = sc.own
		shiftInto(ownBits, own, frame.Lo)
		sc.nShift++
	}
	for wi := range union {
		union[wi] &^= ownBits[wi]
	}
	if r := uint(width) & 63; r != 0 {
		union[nWords-1] &= 1<<r - 1
	}
	sc.sup, sc.cands = fillCandidates(sc.sup[:0], sc.cands[:0], live, union, frame.Lo, pending)
	return sc.cands
}

// aliases reports whether m's words can serve as frame words directly: it
// opens at the frame origin and covers at least width slots.
func aliases(m buffer.Map, lo segment.ID, width int) bool {
	return m.Lo == lo && m.Size >= width
}

// shiftInto writes m's availability into dst in frame coordinates: dst
// bit i is map slot lo+i, zero where the map does not cover it.
func shiftInto(dst []uint64, m buffer.Map, lo segment.ID) {
	clear(dst)
	win := m.Window().Intersect(segment.Window{Lo: lo, Hi: lo + segment.ID(len(dst)*64)})
	if win.Lo >= win.Hi {
		return
	}
	off := int(lo - m.Lo) // frame bit i is map bit i+off
	a, b := int(win.Lo-lo), int(win.Hi-lo)
	for wi := a >> 6; wi <= (b-1)>>6; wi++ {
		// wordAt zero-fills below the map's first slot; only the top end
		// needs a mask, against bits set past the map's size.
		word := wordAt(m.Bits, wi*64+off)
		if wi == (b-1)>>6 && b&63 != 0 {
			word &= 1<<(uint(b)&63) - 1
		}
		dst[wi] = word
	}
}

// wordAt returns the 64 bits of src starting at bit s, zero past either
// end.
func wordAt(src []uint64, s int) uint64 {
	if s <= -64 || s >= len(src)*64 {
		return 0
	}
	if s < 0 {
		return src[0] << uint(-s)
	}
	wi, sh := s>>6, uint(s)&63
	v := src[wi] >> sh
	if sh != 0 && wi+1 < len(src) {
		v |= src[wi+1] << (64 - sh)
	}
	return v
}

// fillCandidates materialises candidates from the union words by
// positional popcount. Per word, bit-sliced counter planes accumulate how
// many live maps hold each lane (plane p holds bit p of every lane's
// count; the carry ripples only as far as it is non-zero), the supplier
// arena is carved into exactly-sized per-candidate runs from those
// counts, and one masked-word pass per map fills the runs at each lane's
// cursor. Candidates emerge with IDs ascending and suppliers in live
// order, entry for entry what a per-ID scan produces.
func fillCandidates(arena []scheduler.Supplier, cands []scheduler.Candidate, live []liveMap, union []uint64, lo segment.ID, pending func(segment.ID) bool) ([]scheduler.Supplier, []scheduler.Candidate) {
	// Counts reach len(live), so that many planes' worth of bits suffice.
	var planes [64]uint64
	np := mathbits.Len(uint(len(live)))
	// starts/next entries are read only at set bits of the current word,
	// which the same iteration always writes first — no per-word clearing.
	var starts, next [64]int32
	for wi, word := range union {
		if word == 0 {
			continue
		}
		if pending != nil {
			for m := word; m != 0; m &= m - 1 {
				k := mathbits.TrailingZeros64(m)
				if pending(lo + segment.ID(wi*64+k)) {
					word &^= 1 << uint(k)
				}
			}
			if word == 0 {
				continue
			}
		}
		clear(planes[:np])
		for _, lm := range live {
			x := lm.bits[wi] & word
			for p := 0; x != 0; p++ {
				carry := planes[p] & x
				planes[p] ^= x
				x = carry
			}
		}
		base := len(arena)
		off := base
		for m := word; m != 0; m &= m - 1 {
			k := uint(mathbits.TrailingZeros64(m))
			cnt := 0
			for p := 0; p < np; p++ {
				cnt |= int(planes[p]>>k&1) << p
			}
			starts[k] = int32(off)
			next[k] = int32(off)
			off += cnt
		}
		arena = slices.Grow(arena, off-base)[:off]
		for _, lm := range live {
			tail := lm.tail - wi*64
			for x := lm.bits[wi] & word; x != 0; x &= x - 1 {
				k := mathbits.TrailingZeros64(x)
				p := next[k]
				next[k] = p + 1
				arena[p] = scheduler.Supplier{Node: int(lm.id), Rate: lm.rate, PositionFromTail: tail - k}
			}
		}
		for m := word; m != 0; m &= m - 1 {
			k := mathbits.TrailingZeros64(m)
			a, e := int(starts[k]), int(next[k])
			cands = append(cands, scheduler.Candidate{ID: lo + segment.ID(wi*64+k), Suppliers: arena[a:e:e]})
		}
	}
	return arena, cands
}

// RarityView evaluates the requesting-priority rarity term from a
// supplier's point of view: the product of p_ij/B over the segment's FIFO
// positions-from-tail in the advertised maps of the supplier's neighbours
// that hold it — the requester-side scheduler.Rarity (equation (2)) with
// the same clamping and factor order. A segment none of the supplier's
// neighbours hold is maximally rare — the supplier may be its sole holder
// in the neighbourhood — so the empty product is 1, not scheduler.Rarity's
// no-candidate 0. It is built once per supplier per period: Reset, then
// Add each neighbour's map in ascending neighbour order.
type RarityView struct {
	size    int
	origin  segment.ID
	aligned bool
	maps    []buffer.Map
}

// Reset empties the view for a supplier whose buffers hold bufferSize
// segments and whose playback window opens at origin.
func (v *RarityView) Reset(bufferSize int, origin segment.ID) {
	v.size, v.origin, v.aligned = bufferSize, origin, true
	v.maps = v.maps[:0]
}

// Add appends one neighbour's advertised map.
func (v *RarityView) Add(m buffer.Map) {
	if m.Lo != v.origin || m.Size != v.size {
		v.aligned = false
	}
	v.maps = append(v.maps, m)
}

// Rarity returns the rarity of id, multiplying the holders' factors in
// the order their maps were added. When
// every map opens at the origin with the full buffer size, a holder's
// position is the same in each map, so the holders are counted and the
// product taken by SupplierRarityUniform — bit-identical to the general
// product.
func (v *RarityView) Rarity(id segment.ID) float64 {
	if v.aligned {
		count := 0
		i := int(id - v.origin)
		if i >= 0 && i < v.size {
			wi, bit := i>>6, uint64(1)<<(uint(i)&63)
			for _, m := range v.maps {
				if m.Bits[wi]&bit != 0 {
					count++
				}
			}
		}
		return SupplierRarityUniform(v.size, v.size-i, count)
	}
	r := 1.0
	for _, m := range v.maps {
		if pft, ok := m.PositionFromTail(id); ok {
			r *= rarityFactor(v.size, pft)
		}
	}
	return r
}
