package protocol

import (
	"slices"

	"continustreaming/internal/overlay"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
)

// PlanPush is the scalar reference for PlanPushMask: the same plan with
// availability probed once per (segment, neighbour) pair through has,
// which reports whether a neighbour already holds a segment. Production
// code plans through PlanPushMask; the tests hold the two to identical
// output.
func PlanPush(seed uint64, from overlay.NodeID, segs []segment.ID, neighbours []overlay.NodeID, has func(overlay.NodeID, segment.ID) bool, budget int) []Send {
	if budget <= 0 || len(segs) == 0 || len(neighbours) == 0 {
		return nil
	}
	arena := make([]ranked, 0, len(segs)*len(neighbours))
	off := make([]int, len(segs)+1)
	for i, s := range segs {
		for _, nb := range neighbours {
			if has(nb, s) {
				continue
			}
			arena = append(arena, ranked{to: nb, key: scheduler.Jitter(seed, uint64(s), uint64(nb))})
		}
		off[i+1] = len(arena)
		slices.SortFunc(arena[off[i]:], compareRanked)
	}
	return emitPush(from, segs, arena, off, budget)
}
