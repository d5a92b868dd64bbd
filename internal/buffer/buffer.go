// Package buffer implements the per-node segment buffer of a gossip
// streaming peer: a sliding window of B consecutive segment IDs with FIFO
// replacement, plus the compact buffer-map encoding the paper costs at
// 620 bits per exchange (a 20-bit head ID and a B=600-bit availability
// bitmap, §5.4.2).
//
// The buffer covers the half-open ID window [Lo, Lo+B). Lo advances as
// playback proceeds; segments that fall below Lo are replaced ("d has been
// played back by B and removed from B's buffer" — §1 case 2). A segment's
// position from the tail, needed by the rarity computation of §4.2, is the
// number of window slots between the segment and the newest end: old
// segments sit near the eviction end and therefore have a high probability
// pij/B of being replaced soon.
package buffer

import (
	"fmt"
	"math/bits"

	"continustreaming/internal/segment"
)

// Buffer is a sliding-window segment store. The zero value is unusable;
// construct with New.
//
// Availability is held as a bitmap in the same word layout as Map, so
// snapshotting is a word copy rather than a bool-by-bool repack, and
// window queries run word-at-a-time.
type Buffer struct {
	size int
	lo   segment.ID // lowest ID currently covered by the window
	bits []uint64   // bit i = presence of segment lo+i; bits at i >= size stay zero
	held int        // number of set bits

	// version counts observable mutations (stores and window moves). The
	// cached snapshot below is recopied only when it lags the version, so
	// snapshotting a buffer that did not change since the last call is
	// free — the incremental half of the buffer-map exchange.
	version uint64
	snap    Map
	snapVer uint64
}

// New returns an empty buffer of capacity size whose window starts at lo.
func New(size int, lo segment.ID) *Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("buffer: non-positive size %d", size))
	}
	if lo < 0 {
		lo = 0
	}
	return &Buffer{size: size, lo: lo, bits: make([]uint64, (size+63)/64), version: 1}
}

// Size returns the buffer capacity B.
func (b *Buffer) Size() int { return b.size }

// Lo returns the lowest ID covered by the window (the FIFO eviction end).
func (b *Buffer) Lo() segment.ID { return b.lo }

// Hi returns one past the highest ID covered by the window.
func (b *Buffer) Hi() segment.ID { return b.lo + segment.ID(b.size) }

// Window returns the ID range covered by the buffer.
func (b *Buffer) Window() segment.Window {
	return segment.Window{Lo: b.lo, Hi: b.Hi()}
}

// Held returns how many segments are currently present.
func (b *Buffer) Held() int { return b.held }

// Has reports whether segment id is present. IDs outside the window are
// absent by definition.
func (b *Buffer) Has(id segment.ID) bool {
	if id < b.lo || id >= b.Hi() {
		return false
	}
	i := int(id - b.lo)
	return b.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Insert records segment id as present. It returns false without modifying
// the buffer when id falls outside the current window (too old: already
// evicted; too new: the window has not reached it — callers advance the
// window with playback, not with receipt, mirroring the paper's FIFO
// description). Inserting a segment that is already present is a no-op
// returning false, so the return value means "newly stored".
func (b *Buffer) Insert(id segment.ID) bool {
	if id < b.lo || id >= b.Hi() {
		return false
	}
	i := int(id - b.lo)
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.bits[w]&m != 0 {
		return false
	}
	b.bits[w] |= m
	b.held++
	b.version++
	return true
}

// AdvanceTo slides the window so that its lowest ID becomes lo, evicting
// everything below. Moving backwards is a no-op. It returns the number of
// evicted (present) segments.
func (b *Buffer) AdvanceTo(lo segment.ID) int {
	if lo <= b.lo {
		return 0
	}
	shift := int(lo - b.lo)
	b.version++
	if shift >= b.size {
		evicted := b.held
		clear(b.bits)
		b.held = 0
		b.lo = lo
		return evicted
	}
	evicted := b.onesBelow(shift)
	shiftDown(b.bits, shift)
	b.held -= evicted
	b.lo = lo
	return evicted
}

// onesBelow counts the set bits at indices [0, n).
func (b *Buffer) onesBelow(n int) int {
	c := 0
	for w := 0; w < n>>6; w++ {
		c += bits.OnesCount64(b.bits[w])
	}
	if r := uint(n) & 63; r != 0 {
		c += bits.OnesCount64(b.bits[n>>6] & (1<<r - 1))
	}
	return c
}

// shiftDown moves every bit of w down by shift positions, zero-filling the
// top. Bits beyond the logical size stay zero because they were zero.
func shiftDown(w []uint64, shift int) {
	words, rem := shift>>6, uint(shift&63)
	n := len(w)
	if words > 0 {
		copy(w, w[words:])
		clear(w[n-words:])
	}
	if rem > 0 {
		for i := 0; i < n-1; i++ {
			w[i] = w[i]>>rem | w[i+1]<<(64-rem)
		}
		w[n-1] >>= rem
	}
}

// PositionFromTail returns pij, the paper's FIFO position of segment id
// measured from the insertion (newest) end of the window: old segments —
// those about to be evicted — have positions near B, so pij/B is the
// probability the segment is replaced soon. The second result is false when
// the id is outside the window or absent.
func (b *Buffer) PositionFromTail(id segment.ID) (int, bool) {
	if !b.Has(id) {
		return 0, false
	}
	return int(b.Hi() - id), true
}

// MissingIn returns the IDs in w (clipped to the buffer window) that are
// absent, in ascending order. The result is freshly allocated; hot paths
// use AppendMissingIn with reused scratch instead.
func (b *Buffer) MissingIn(w segment.Window) []segment.ID {
	return b.AppendMissingIn(nil, w)
}

// AppendMissingIn appends the IDs in w (clipped to the buffer window) that
// are absent to dst, in ascending order, and returns the extended slice.
// The scan runs word-at-a-time over the complemented availability bits, so
// a mostly-full window costs a handful of word operations instead of one
// bit probe per ID.
func (b *Buffer) AppendMissingIn(dst []segment.ID, w segment.Window) []segment.ID {
	w = w.Intersect(b.Window())
	if w.Lo >= w.Hi {
		return dst
	}
	lo, hi := int(w.Lo-b.lo), int(w.Hi-b.lo)
	first, last := lo>>6, (hi-1)>>6
	for wi := first; wi <= last; wi++ {
		word := ^b.bits[wi]
		if wi == first {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == last {
			if r := uint(hi) & 63; r != 0 {
				word &= 1<<r - 1
			}
		}
		for word != 0 {
			k := bits.TrailingZeros64(word)
			word &= word - 1
			dst = append(dst, b.lo+segment.ID(wi<<6|k))
		}
	}
	return dst
}

// CountIn returns how many segments in w (clipped to the window) are held.
func (b *Buffer) CountIn(w segment.Window) int {
	w = w.Intersect(b.Window())
	if w.Lo >= w.Hi {
		return 0
	}
	return b.onesBelow(int(w.Hi-b.lo)) - b.onesBelow(int(w.Lo-b.lo))
}

// HasAll reports whether every ID in w (not clipped) is held: an ID outside
// the window counts as missing.
func (b *Buffer) HasAll(w segment.Window) bool {
	if w.Lo >= w.Hi {
		return true
	}
	if w.Lo < b.lo || w.Hi > b.Hi() {
		return false
	}
	a, c := int(w.Lo-b.lo), int(w.Hi-b.lo)
	return b.onesBelow(c)-b.onesBelow(a) == c-a
}

// View returns the buffer's availability as a Map whose Bits alias the
// live availability words: read-only for callers, and its contents change
// with every mutation. It exists so hot paths can run word-level set
// operations against advertised maps without copying.
func (b *Buffer) View() Map { return Map{Lo: b.lo, Bits: b.bits, Size: b.size} }

// Snapshot returns the buffer's availability as a Map suitable for
// exchanging with neighbours. The result is an independent copy.
func (b *Buffer) Snapshot() Map {
	m := Map{Lo: b.lo, Bits: make([]uint64, len(b.bits)), Size: b.size}
	copy(m.Bits, b.bits)
	return m
}

// SnapshotShared returns the buffer's availability as a Map whose Bits
// alias a cache owned by the buffer. The cache is recopied only when the
// buffer changed since the previous call, so a node whose buffer is
// untouched between exchanges advertises its map at zero cost. The
// returned Map must be treated as read-only; it stays valid until the
// first SnapshotShared call that follows a later mutation. Callers that
// need an independent copy use Snapshot.
func (b *Buffer) SnapshotShared() Map {
	if b.snapVer != b.version {
		if b.snap.Bits == nil {
			b.snap = Map{Bits: make([]uint64, len(b.bits)), Size: b.size}
		}
		b.snap.Lo = b.lo
		copy(b.snap.Bits, b.bits)
		b.snapVer = b.version
	}
	return b.snap
}
