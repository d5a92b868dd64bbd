package protocol

import (
	"slices"
	"testing"

	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// SupplierRarity is the scalar rarity oracle: the product of the clamped
// factors p_ij/B over the holders' positions-from-tail, in order, with an
// empty product of 1.
func SupplierRarity(bufferSize int, positions []int) float64 {
	r := 1.0
	for _, pos := range positions {
		p := float64(pos) / float64(bufferSize)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		r *= p
	}
	return r
}

// TestSupplierRarityUniformMatchesScalar checks the aligned-window rarity
// shortcut bit for bit against the general product: when every holder
// reports the same position-from-tail — the invariant the round pipeline's
// shared playback origin guarantees — the repeated-factor form must equal
// SupplierRarity over the equal-valued position list exactly, because both
// execute the identical multiply sequence.
func TestSupplierRarityUniformMatchesScalar(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x4a71)
	for trial := 0; trial < 5000; trial++ {
		size := 1 + rng.Intn(240)
		pos := rng.Intn(size+40) - 20 // includes out-of-range clamping cases
		count := rng.Intn(70)
		positions := make([]int, count)
		for i := range positions {
			positions[i] = pos
		}
		got := SupplierRarityUniform(size, pos, count)
		want := SupplierRarity(size, positions)
		if got != want {
			t.Fatalf("trial %d: SupplierRarityUniform(%d, %d, %d) = %v, want %v",
				trial, size, pos, count, got, want)
		}
	}
	if got := SupplierRarityUniform(120, 30, 0); got != 1.0 {
		t.Fatalf("zero holders: got %v, want the empty product 1.0", got)
	}
}

// TestPlanPushMaskMatchesPlanPush cross-checks the lack-row planner
// against the scalar per-(segment, neighbour) oracle on random frontiers —
// random neighbour sets, holdings and budgets — at widths on and across
// word boundaries: one segment, exactly one word, one bit past a word,
// and several words. The two must emit identical Send sequences.
func TestPlanPushMaskMatchesPlanPush(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x9a5e)
	for _, width := range []int{1, 64, 65, 200} {
		for trial := 0; trial < 1000; trial++ {
			checkPushMaskTrial(t, rng, trial, width)
		}
	}
}

// checkPushMaskTrial plans one random push over a frontier of the given
// width through both planners and fails on any difference.
func checkPushMaskTrial(t *testing.T, rng *sim.RNG, trial, width int) {
	t.Helper()
	base := segment.ID(rng.Intn(1000))
	nSegs := 1 + rng.Intn(min(width, 12))
	segs := make([]segment.ID, 0, nSegs)
	for i := 0; i < nSegs; i++ {
		s := base + segment.ID(rng.Intn(width))
		if !slices.Contains(segs, s) {
			segs = append(segs, s)
		}
	}
	words := (width + 63) / 64
	nNbrs := rng.Intn(8)
	neighbours := make([]overlay.NodeID, nNbrs)
	holds := make(map[overlay.NodeID][]uint64, nNbrs)
	for i := range neighbours {
		nb := overlay.NodeID(1 + i*3 + rng.Intn(2))
		neighbours[i] = nb
		row := make([]uint64, words)
		for k := range row {
			row[k] = rng.Uint64()
		}
		holds[nb] = row
	}
	from := overlay.NodeID(999)
	seed := rng.Uint64()
	budget := rng.Intn(20)

	scalar := PlanPush(seed, from, segs, neighbours,
		func(nb overlay.NodeID, s segment.ID) bool {
			k := int(s - base)
			return holds[nb][k>>6]&(1<<uint(k&63)) != 0
		}, budget)
	word := PlanPushMask(seed, from, base, width, segs, neighbours,
		func(nb overlay.NodeID, row []uint64) {
			for k := range row {
				row[k] = ^holds[nb][k]
			}
		}, budget)

	if len(scalar) != len(word) {
		t.Fatalf("width %d trial %d: scalar planned %d sends, mask planned %d", width, trial, len(scalar), len(word))
	}
	for i := range scalar {
		if scalar[i] != word[i] {
			t.Fatalf("width %d trial %d: send %d differs: scalar %+v, mask %+v", width, trial, i, scalar[i], word[i])
		}
	}
}
