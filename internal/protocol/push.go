package protocol

import (
	"cmp"
	"slices"

	"continustreaming/internal/overlay"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
)

// ranked is one (target, tie-break key) push candidate. All per-segment
// target lists live in one arena, delimited by offsets: segment i's
// candidates occupy arena[off[i]:off[i+1]].
type ranked struct {
	to  overlay.NodeID
	key uint64
}

func compareRanked(a, b ranked) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.to, b.to)
}

// PlanPushMask computes one pusher's eager transmissions for one hop of
// the fresh-segment push: for every fresh segment it holds, the pusher
// forwards copies to neighbours that lack the segment, breadth-first
// across segments (each segment gets its first copy out before any
// segment gets its second) until the outbound budget is exhausted.
//
// Per-segment target order is a hash of (seed, segment, target), so two
// pushers holding the same segment spray different neighbour prefixes and
// the copies spread instead of piling onto the lowest IDs; the order is a
// pure function of its inputs, which keeps the phase worker-count
// deterministic. Concurrent pushers in the same hop may still race to the
// same target, which the caller counts as a push duplicate on arrival.
//
// Availability is read one lack row per neighbour, not one probe per
// (segment, neighbour) pair: lacks(nb, row) fills row, ⌈width/64⌉ words
// over the frontier window [base, base+width), with bit i set when nb
// lacks segment base+i and can accept a copy (buffer.Map.MissingWords
// builds exactly this row). Every segment must lie in the window. The
// tests hold it to a scalar per-pair reference planner
// (push_oracle_test.go).
func PlanPushMask(seed uint64, from overlay.NodeID, base segment.ID, width int, segs []segment.ID, neighbours []overlay.NodeID, lacks func(nb overlay.NodeID, row []uint64), budget int) []Send {
	if budget <= 0 || len(segs) == 0 || len(neighbours) == 0 {
		return nil
	}
	words := (width + 63) / 64
	rows := make([]uint64, len(neighbours)*words)
	for j, nb := range neighbours {
		lacks(nb, rows[j*words:(j+1)*words])
	}
	arena := make([]ranked, 0, len(segs)*len(neighbours))
	off := make([]int, len(segs)+1)
	for i, s := range segs {
		k := int(s - base)
		wi, bit := k>>6, uint64(1)<<uint(k&63)
		for j, nb := range neighbours {
			if rows[j*words+wi]&bit == 0 {
				continue
			}
			arena = append(arena, ranked{to: nb, key: scheduler.Jitter(seed, uint64(s), uint64(nb))})
		}
		off[i+1] = len(arena)
		slices.SortFunc(arena[off[i]:], compareRanked)
	}
	return emitPush(from, segs, arena, off, budget)
}

// emitPush walks the ranked arena breadth-first — each segment's first
// copy goes out before any segment's second — until the budget runs out.
func emitPush(from overlay.NodeID, segs []segment.ID, arena []ranked, off []int, budget int) []Send {
	total := len(arena)
	if total == 0 {
		return nil
	}
	if total > budget {
		total = budget
	}
	out := make([]Send, 0, total)
	for depth := 0; budget > 0; depth++ {
		progressed := false
		for i, s := range segs {
			if depth >= off[i+1]-off[i] {
				continue
			}
			progressed = true
			out = append(out, Send{From: from, To: arena[off[i]+depth].to, ID: s})
			if budget--; budget <= 0 {
				return out
			}
		}
		if !progressed {
			break
		}
	}
	return out
}
