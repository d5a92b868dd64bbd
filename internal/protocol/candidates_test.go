package protocol

import (
	"fmt"
	"slices"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/overlay"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// scanCandidates is the per-ID oracle for Candidates: every neighbour
// map's window is scanned ID by ID, keeping IDs inside frame that the map
// advertises, own does not hold and pending does not claim, with
// suppliers in nbrs order.
func scanCandidates(frame segment.Window, own buffer.Map, nbrs []NeighbourMap, pending func(segment.ID) bool) []scheduler.Candidate {
	found := make(map[segment.ID][]scheduler.Supplier)
	var ids []segment.ID
	for _, nb := range nbrs {
		win := frame.Intersect(nb.Map.Window())
		for id := win.Lo; id < win.Hi; id++ {
			if !nb.Map.Has(id) || own.Has(id) || (pending != nil && pending(id)) {
				continue
			}
			pft, _ := nb.Map.PositionFromTail(id)
			if found[id] == nil {
				ids = append(ids, id)
			}
			found[id] = append(found[id], scheduler.Supplier{Node: int(nb.ID), Rate: nb.Rate, PositionFromTail: pft})
		}
	}
	slices.Sort(ids)
	out := make([]scheduler.Candidate, 0, len(ids))
	for _, id := range ids {
		out = append(out, scheduler.Candidate{ID: id, Suppliers: found[id]})
	}
	return out
}

// scanRarity is the per-ID oracle for RarityView: it gathers the holders'
// positions in map order and hands them to SupplierRarity.
func scanRarity(size int, maps []buffer.Map, id segment.ID) float64 {
	var positions []int
	for _, m := range maps {
		if pft, ok := m.PositionFromTail(id); ok {
			positions = append(positions, pft)
		}
	}
	return SupplierRarity(size, positions)
}

// randomMap draws a map whose window opens at lo with the given size,
// holding each slot with probability density percent. Some maps also set
// every bit past the size in their last word, which no consumer may read
// as an ID.
func randomMap(rng *sim.RNG, lo segment.ID, size, density int) buffer.Map {
	b := buffer.New(size, lo)
	for id := lo; id < lo+segment.ID(size); id++ {
		if rng.Intn(100) < density {
			b.Insert(id)
		}
	}
	m := b.Snapshot()
	if r := uint(size) & 63; r != 0 && rng.Intn(4) == 0 {
		m.Bits[len(m.Bits)-1] |= ^uint64(0) << r
	}
	return m
}

// TestCandidatesMatchesScan is the enumerator's property test against the
// per-ID oracle over random frames and neighbourhoods: maps opening
// before, at and after the frame origin (offsets past a whole word
// included), maps shorter and wider than the frame, neighbourhoods wider
// than 63 maps, and random pending filters.
func TestCandidatesMatchesScan(t *testing.T) {
	rng := sim.DeriveRNG(1, 0xca4d)
	var sc CandidateScratch
	compared, wide := 0, 0
	for trial := 0; trial < 3000; trial++ {
		lo := segment.ID(200 + rng.Intn(200))
		width := 1 + rng.Intn(300)
		frame := segment.Window{Lo: lo, Hi: lo + segment.ID(width)}
		// origin draws a map origin relative to the frame: mostly aligned
		// (the simulator's case), else anywhere from 150 before to 150
		// after the frame origin.
		origin := func() segment.ID {
			if rng.Intn(3) == 0 {
				return lo
			}
			return lo + segment.ID(rng.Intn(301)-150)
		}
		size := func() int {
			switch rng.Intn(3) {
			case 0:
				return width
			case 1:
				return 1 + rng.Intn(width)
			default:
				return width + rng.Intn(200)
			}
		}
		own := randomMap(rng, origin(), size(), rng.Intn(101))
		n, density := rng.Intn(8), -1
		if rng.Intn(10) == 0 {
			// Dense and wide: lanes with more than 63 holders need a
			// seventh counter plane.
			n, density = 64+rng.Intn(40), 90+rng.Intn(11)
			wide++
		}
		nbrs := make([]NeighbourMap, n)
		for i := range nbrs {
			d := density
			if d < 0 {
				d = rng.Intn(101)
			}
			nbrs[i] = NeighbourMap{ID: overlay.NodeID(3*i + 1), Rate: float64(rng.Intn(20)), Map: randomMap(rng, origin(), size(), d)}
		}
		var pending func(segment.ID) bool
		if rng.Intn(2) == 0 {
			marked := make(map[segment.ID]bool)
			for k := rng.Intn(40); k > 0; k-- {
				marked[lo+segment.ID(rng.Intn(width))] = true
			}
			pending = func(id segment.ID) bool { return marked[id] }
		}
		got := Candidates(&sc, frame, own, nbrs, pending)
		want := scanCandidates(frame, own, nbrs, pending)
		where := fmt.Sprintf("trial %d (frame %v, %d maps)", trial, frame, n)
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, oracle %d", where, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || !slices.Equal(got[i].Suppliers, want[i].Suppliers) {
				t.Fatalf("%s cand %d: %+v, oracle %+v", where, i, got[i], want[i])
			}
		}
		compared += len(want)
	}
	if compared == 0 || wide == 0 {
		t.Fatalf("compared %d candidates over %d wide neighbourhoods; the property test exercised too little", compared, wide)
	}
}

// TestCandidatesAliasAlignedMaps pins the simulator's hot path: maps that
// open at the frame origin and span it are read in place, never shifted.
func TestCandidatesAliasAlignedMaps(t *testing.T) {
	rng := sim.DeriveRNG(2, 0xa11a)
	frame := segment.Window{Lo: 640, Hi: 1240}
	own := randomMap(rng, 640, 600, 30)
	nbrs := []NeighbourMap{
		{ID: 1, Rate: 5, Map: randomMap(rng, 640, 600, 60)},
		{ID: 4, Rate: 7, Map: randomMap(rng, 640, 600, 60)},
	}
	var sc CandidateScratch
	if len(Candidates(&sc, frame, own, nbrs, nil)) == 0 {
		t.Fatal("no candidates from two random maps")
	}
	if sc.Shifted() != 0 {
		t.Fatalf("aligned maps were shifted %d times", sc.Shifted())
	}
	nbrs[1].Map = randomMap(rng, 630, 600, 60) // one period behind
	Candidates(&sc, frame, own, nbrs, nil)
	if sc.Shifted() != 1 {
		t.Fatalf("shifted %d maps, want exactly the lagging one", sc.Shifted())
	}
}

// TestRarityViewMatchesScan checks the rarity helper against the scalar
// product over random neighbourhoods — aligned (the holder-count path),
// sharing the origin but not the size, and unaligned — for IDs inside
// and around the window.
func TestRarityViewMatchesScan(t *testing.T) {
	rng := sim.DeriveRNG(3, 0x7a71)
	var v RarityView
	for trial := 0; trial < 3000; trial++ {
		size := 1 + rng.Intn(300)
		origin := segment.ID(100 + rng.Intn(100))
		mode := rng.Intn(3)
		maps := make([]buffer.Map, rng.Intn(80))
		v.Reset(size, origin)
		for i := range maps {
			lo, sz := origin, size
			if mode > 0 {
				sz = 1 + rng.Intn(2*size)
			}
			if mode > 1 {
				lo += segment.ID(rng.Intn(161) - 80)
			}
			maps[i] = randomMap(rng, lo, sz, rng.Intn(101))
			v.Add(maps[i])
		}
		for k := 0; k < 20; k++ {
			id := origin + segment.ID(rng.Intn(size+200)-100)
			if got, want := v.Rarity(id), scanRarity(size, maps, id); got != want {
				t.Fatalf("trial %d id %d (mode %d, %d maps): rarity %v, oracle %v", trial, id, mode, len(maps), got, want)
			}
		}
	}
}
