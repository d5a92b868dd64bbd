package protocol

import (
	"reflect"
	"slices"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// The parity tests pin the tentpole contract of the protocol extraction:
// the simulator and the livenet runtime feed the same decision functions
// through differently shaped adapters — the simulator from its per-round
// snapshot slice indexed by order position, livenet from the per-peer map
// of announced buffer maps — and identical situations must yield
// identical decisions. If either runtime's input assembly drifts (a
// filter lost, an order changed), these tests fail before the divergence
// can hide inside end-to-end noise.

// parityWorld is one shared scenario: a supplier holding segments 100+,
// three requesters with known buffer maps, one dead requester, and a
// carry queue from the previous round.
type parityWorld struct {
	supplier  *buffer.Buffer
	order     []overlay.NodeID
	bufs      map[overlay.NodeID]*buffer.Buffer
	alive     map[overlay.NodeID]bool
	neighbors []overlay.NodeID
}

func newParityWorld(t *testing.T) *parityWorld {
	t.Helper()
	w := &parityWorld{
		supplier: buffer.New(600, 100),
		order:    []overlay.NodeID{1, 2, 3},
		bufs:     make(map[overlay.NodeID]*buffer.Buffer),
		alive:    map[overlay.NodeID]bool{1: true, 2: true, 3: true},
		// 3 is also a mesh neighbour of the supplier (rarity view).
		neighbors: []overlay.NodeID{3},
	}
	for id := segment.ID(100); id < 140; id++ {
		w.supplier.Insert(id)
	}
	for _, r := range w.order {
		w.bufs[r] = buffer.New(600, 100)
	}
	w.bufs[2].Insert(105) // requester 2 already obtained 105 elsewhere
	w.bufs[3].Insert(120)
	w.bufs[3].Insert(121)
	return w
}

func (w *parityWorld) carried() []Request {
	return []Request{
		{Requester: 1, ID: 104, Deadline: 12, Carried: true},
		{Requester: 2, ID: 105, Deadline: 12, Carried: true}, // stale: obtained elsewhere
		{Requester: 4, ID: 106, Deadline: 13, Carried: true}, // stale: requester died
	}
}

func (w *parityWorld) fresh() []Ask {
	return []Ask{
		{Requester: 3, ID: 110, Deadline: 14},
		{Requester: 1, ID: 104, Deadline: 12}, // re-ask of a carried twin
		{Requester: 2, ID: 130, Deadline: 20},
		{Requester: 1, ID: 131, Deadline: 9}, // past horizon unless granted
	}
}

// simServeInput assembles the ServeInput the way core.serveSupplier does:
// from a snapshot slice aligned with a sorted order and an index map.
func (w *parityWorld) simServeInput() ServeInput {
	snaps := make([]buffer.Map, len(w.order))
	index := make(map[overlay.NodeID]int, len(w.order))
	for i, id := range w.order {
		snaps[i] = w.bufs[id].Snapshot()
		index[id] = i
	}
	var rarity RarityView
	rarity.Reset(600, 100)
	for _, nb := range w.neighbors {
		if j, ok := index[nb]; ok {
			rarity.Add(snaps[j])
		}
	}
	return ServeInput{
		Carried:     w.carried(),
		Fresh:       w.fresh(),
		Capacity:    3,
		QueueCap:    2,
		Horizon:     10,
		SupplierHas: w.supplier.Has,
		RequesterAlive: func(id overlay.NodeID) bool {
			_, ok := index[id]
			return ok
		},
		RequesterHas: func(id overlay.NodeID, seg segment.ID) bool {
			j, ok := index[id]
			return ok && snaps[j].Has(seg)
		},
		Rarity: rarity.Rarity,
	}
}

// liveServeInput assembles the same situation the way a livenet peer
// does: from the per-peer map of announced buffer maps and the registry
// liveness view.
func (w *parityWorld) liveServeInput() ServeInput {
	nbrMaps := make(map[int]buffer.Map)
	for _, id := range w.order {
		nbrMaps[int(id)] = w.bufs[id].Snapshot()
	}
	var rarity RarityView
	rarity.Reset(600, 100)
	for _, nb := range w.neighbors {
		if nm, ok := nbrMaps[int(nb)]; ok {
			rarity.Add(nm)
		}
	}
	return ServeInput{
		Carried:     w.carried(),
		Fresh:       w.fresh(),
		Capacity:    3,
		QueueCap:    2,
		Horizon:     10,
		SupplierHas: w.supplier.Has,
		RequesterAlive: func(id overlay.NodeID) bool {
			return w.alive[id]
		},
		RequesterHas: func(id overlay.NodeID, seg segment.ID) bool {
			nm, ok := nbrMaps[int(id)]
			return ok && nm.Has(seg)
		},
		Rarity: rarity.Rarity,
	}
}

// TestServeParitySimVsLivenet asserts the supplier-side serve decision is
// identical no matter which runtime assembled its inputs.
func TestServeParitySimVsLivenet(t *testing.T) {
	w := newParityWorld(t)
	simRes := PlanServe(w.simServeInput(), nil)
	liveRes := PlanServe(w.liveServeInput(), &ServeScratch{})
	if !reflect.DeepEqual(simRes, liveRes) {
		t.Fatalf("serve decisions diverged:\nsim  %+v\nlive %+v", simRes, liveRes)
	}
	// Sanity on the shared outcome, so parity cannot be trivially
	// satisfied by two empty results: the stale carried entries are
	// evicted, the EDF order grants the earliest deadlines.
	if simRes.Evicted.Stale != 2 {
		t.Fatalf("stale evictions = %d, want 2 (dead requester + obtained elsewhere): %+v", simRes.Evicted.Stale, simRes)
	}
	if len(simRes.Granted) != 3 {
		t.Fatalf("granted %d, want capacity 3: %+v", len(simRes.Granted), simRes)
	}
}

// TestPushParitySimVsLivenet asserts the eager-push plan is identical for
// both runtimes' lack rows over the same neighbourhood: the simulator's
// read from neighbour buffers, livenet's from announced maps.
func TestPushParitySimVsLivenet(t *testing.T) {
	w := newParityWorld(t)
	segs := []segment.ID{120, 121, 122}
	frontier := segment.Window{Lo: 120, Hi: 123}
	nbs := w.order
	// Sim-shaped view: direct buffer reads.
	simLacks := func(to overlay.NodeID, row []uint64) {
		var m buffer.Map
		if b, ok := w.bufs[to]; ok {
			m = b.View()
		}
		m.MissingWords(row, frontier)
	}
	// Livenet-shaped view: announced map reads.
	nbrMaps := make(map[int]buffer.Map)
	for _, id := range w.order {
		nbrMaps[int(id)] = w.bufs[id].Snapshot()
	}
	liveLacks := func(to overlay.NodeID, row []uint64) {
		nbrMaps[int(to)].MissingWords(row, frontier)
	}
	const seed, budget = 0xfeed, 5
	width := int(frontier.Hi - frontier.Lo)
	simPlan := PlanPushMask(seed, 7, frontier.Lo, width, segs, nbs, simLacks, budget)
	livePlan := PlanPushMask(seed, 7, frontier.Lo, width, segs, nbs, liveLacks, budget)
	if !reflect.DeepEqual(simPlan, livePlan) {
		t.Fatalf("push plans diverged:\nsim  %+v\nlive %+v", simPlan, livePlan)
	}
	if len(simPlan) == 0 {
		t.Fatal("parity trivially satisfied by empty plans")
	}
	for _, s := range simPlan {
		if s.To == 3 && (s.ID == 120 || s.ID == 121) {
			t.Fatalf("pushed %v to a holder: %+v", s.ID, simPlan)
		}
	}
}

// TestCandidateParitySimVsLivenet asserts the pull scheduler sees the same
// candidate set whichever runtime assembled it from identical maps: the
// simulator from its snapshot slice, order index and fetch edge, livenet
// from its announced-map table, link set and own-window frame. Both the
// aligned maps of a BSP round and maps one period behind (livenet's
// usual case) are checked, against the per-ID oracle as well.
func TestCandidateParitySimVsLivenet(t *testing.T) {
	const size, rate = 600, 10
	for _, lag := range []segment.ID{0, rate} {
		pos := segment.ID(100)
		edge := pos + 60 // the live edge: nothing beyond it exists yet
		own := buffer.New(size, pos)
		for id := pos; id < edge; id += 3 {
			own.Insert(id)
		}
		order := []overlay.NodeID{1, 2, 3, 5, 8}
		bufs := make(map[overlay.NodeID]*buffer.Buffer)
		for i, id := range order {
			b := buffer.New(size, pos-lag)
			for s := pos - lag; s < edge; s++ {
				if (int(s)+i)%(i+2) != 0 {
					b.Insert(s)
				}
			}
			bufs[id] = b
		}
		rateOf := func(id overlay.NodeID) float64 { return float64(2 + id) }
		pendingSet := map[segment.ID]bool{pos + 4: true, pos + 41: true}
		pending := func(id segment.ID) bool { return pendingSet[id] }
		nodeNbrs := []overlay.NodeID{2, 3, 8} // node 1's links, ascending

		// Sim-shaped: snapshots aligned with order, looked up by index.
		snaps := make([]buffer.Map, len(order))
		index := make(map[overlay.NodeID]int)
		for i, id := range order {
			snaps[i] = bufs[id].SnapshotShared()
			index[id] = i
		}
		var simNbrs []NeighbourMap
		for _, nb := range nodeNbrs {
			simNbrs = append(simNbrs, NeighbourMap{ID: nb, Rate: rateOf(nb), Map: snaps[index[nb]]})
		}
		simFrame := segment.Window{Lo: pos, Hi: edge}
		var simScratch CandidateScratch
		simCands := Candidates(&simScratch, simFrame, own.View(), simNbrs, pending)

		// Livenet-shaped: announced maps keyed by peer, the link set, and
		// the own-window frame.
		nbrMaps := make(map[int]buffer.Map)
		for _, id := range order {
			nbrMaps[int(id)] = bufs[id].Snapshot()
		}
		links := map[int]bool{8: true, 2: true, 3: true}
		var linked []overlay.NodeID
		for id := range links {
			linked = append(linked, overlay.NodeID(id))
		}
		slices.Sort(linked)
		var liveNbrs []NeighbourMap
		for _, nb := range linked {
			if m, ok := nbrMaps[int(nb)]; ok {
				liveNbrs = append(liveNbrs, NeighbourMap{ID: nb, Rate: rateOf(nb), Map: m})
			}
		}
		liveFrame := segment.Window{Lo: pos, Hi: pos + size}
		var liveScratch CandidateScratch
		liveCands := Candidates(&liveScratch, liveFrame, own.View(), liveNbrs, pending)

		if !reflect.DeepEqual(simCands, liveCands) {
			t.Fatalf("lag %d: candidate sets diverged:\nsim  %+v\nlive %+v", lag, simCands, liveCands)
		}
		if want := scanCandidates(liveFrame, own.View(), liveNbrs, pending); !reflect.DeepEqual(liveCands, want) {
			t.Fatalf("lag %d: candidates %+v, oracle %+v", lag, liveCands, want)
		}
		if len(simCands) == 0 {
			t.Fatalf("lag %d: parity trivially satisfied by empty candidate sets", lag)
		}
		if shifted := liveScratch.Shifted(); (shifted == 0) != (lag == 0) {
			t.Fatalf("lag %d: %d maps shifted", lag, shifted)
		}
	}
}

// TestGossipPicksDeterministic pins the draw-for-draw RNG contract the
// simulator's worker-count determinism depends on: picks are a function
// of the stream and neighbour list alone.
func TestGossipPicksDeterministic(t *testing.T) {
	nbs := []overlay.NodeID{2, 5, 9, 11}
	alive := func(id overlay.NodeID) bool { return id != 9 }
	collect := func() [][2]overlay.NodeID {
		var out [][2]overlay.NodeID
		GossipPicks(sim.DeriveRNG(42, 7), nbs, alive,
			func(to, about overlay.NodeID) { out = append(out, [2]overlay.NodeID{to, about}) })
		return out
	}
	a, b := collect(), collect()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gossip picks not deterministic: %v vs %v", a, b)
	}
	for _, ev := range a {
		if ev[0] == 9 || ev[1] == 9 {
			t.Fatalf("dead neighbour 9 in picks: %v", a)
		}
		if ev[0] == ev[1] {
			t.Fatalf("neighbour told about itself: %v", a)
		}
	}
}

// staticView is a fixture ViewProvider over literal pools.
type staticView struct {
	neighbours []NeighborSupply
	overheard  []CandidateSource
	dhtPeers   []CandidateSource
	rp         []overlay.NodeID
	dead       overlay.NodeID
	connected  overlay.NodeID
	// calls counts pool materialisations, for the fast-path assertions.
	calls int
}

func (s *staticView) AppendNeighbors(dst []NeighborSupply) []NeighborSupply {
	s.calls++
	return append(dst, s.neighbours...)
}

func (s *staticView) AppendOverheard(dst []CandidateSource) []CandidateSource {
	s.calls++
	return append(dst, s.overheard...)
}

func (s *staticView) AppendDHTPeers(dst []CandidateSource) []CandidateSource {
	s.calls++
	return append(dst, s.dhtPeers...)
}

func (s *staticView) AppendRPCandidates(dst []overlay.NodeID, max int) []overlay.NodeID {
	s.calls++
	if len(s.rp) > max {
		return append(dst, s.rp[:max]...)
	}
	return append(dst, s.rp...)
}

func (s *staticView) Alive(id overlay.NodeID) bool     { return id != s.dead }
func (s *staticView) Connected(id overlay.NodeID) bool { return id == s.connected }

// TestPlanRewire covers the extracted maintenance decision: distress
// unlocks multi-replacement, cooldown suppresses it, pools are consulted
// in preference order with cross-pool dedupe.
func TestPlanRewire(t *testing.T) {
	prov := &staticView{
		neighbours: []NeighborSupply{
			{ID: 0, Known: true, Supply: 0},   // the source: never a victim
			{ID: 7, Known: true, Supply: 0.2}, // starved link
			{ID: 8, Known: false},             // unobserved: not judged
			{ID: 12, Known: true, Supply: 5},  // healthy
		},
		overheard: []CandidateSource{
			{ID: 30, Latency: 50},
			{ID: 99, Latency: 10}, // dead: filtered
			{ID: 31, Latency: 20},
			{ID: 7, Latency: 5}, // already connected: filtered
		},
		dhtPeers: []CandidateSource{
			{ID: 31, Latency: 1}, // duplicate of overheard: shadowed
			{ID: 40, Latency: 9},
		},
		dead:      99,
		connected: 7,
	}
	base := MaintenanceView{
		Node:            1,
		Source:          0,
		Warm:            true,
		Round:           20,
		LastReplace:     0,
		Degree:          3,
		DegreeTarget:    5,
		MissedLastRound: true,
		MissStreak:      3,
		Provider:        prov,
	}
	tuning := MaintenanceTuning{LowSupplyThreshold: 1, ReplaceCooldownRounds: 8, MaxDistressReplacements: 3}

	intent, ok := PlanRewire(base, tuning, nil)
	if !ok {
		t.Fatal("rewire not planned despite deficit and distress")
	}
	if len(intent.Drop) != 1 || intent.Drop[0] != 7 {
		t.Fatalf("drop = %v, want the one starved judged neighbour [7]", intent.Drop)
	}
	// Preference order: overheard by latency (31 then 30), then the DHT
	// pool's non-duplicate (40).
	want := []overlay.NodeID{31, 30, 40}
	if !reflect.DeepEqual(intent.Adopt, want) {
		t.Fatalf("adopt = %v, want %v", intent.Adopt, want)
	}

	cooled := base
	cooled.LastReplace = 15 // within the 8-round cooldown
	intent, _ = PlanRewire(cooled, tuning, nil)
	if len(intent.Drop) != 0 {
		t.Fatalf("drop = %v during cooldown, want none", intent.Drop)
	}

	// The at-target fast path must decide from scalars alone: a healthy
	// full-degree node's provider is never consulted — pinned by leaving
	// the provider nil entirely.
	satisfied := base
	satisfied.Degree = 5
	satisfied.MissedLastRound = false
	satisfied.Provider = nil
	if _, ok := PlanRewire(satisfied, tuning, nil); ok {
		t.Fatal("rewire planned for a healthy full-degree node")
	}
}

// TestPlanRewireScratchReuse pins the scratch semantics: planning
// through a shared scratch yields decisions identical to scratch-free
// planning, intents from one batch stay intact as later plans are
// carved from the same arena, and Reset recycles the arena storage.
func TestPlanRewireScratchReuse(t *testing.T) {
	tuning := MaintenanceTuning{LowSupplyThreshold: 1, ReplaceCooldownRounds: 8, MaxDistressReplacements: 3}
	mkView := func(node overlay.NodeID) MaintenanceView {
		return MaintenanceView{
			Node:            node,
			Source:          0,
			Warm:            true,
			Round:           20,
			Degree:          3,
			DegreeTarget:    5,
			MissedLastRound: true,
			MissStreak:      3,
			Provider: &staticView{
				neighbours: []NeighborSupply{{ID: node + 100, Known: true, Supply: 0.1}},
				overheard: []CandidateSource{
					{ID: node + 10, Latency: 5},
					{ID: node + 11, Latency: 7},
					{ID: node + 12, Latency: 9},
				},
				dhtPeers: []CandidateSource{{ID: node + 20, Latency: 3}},
			},
		}
	}
	var sc RewireScratch
	var batch []RewireIntent
	var fresh []RewireIntent
	for node := overlay.NodeID(1); node <= 8; node++ {
		if in, ok := PlanRewire(mkView(node), tuning, &sc); ok {
			batch = append(batch, in)
		}
		if in, ok := PlanRewire(mkView(node), tuning, nil); ok {
			fresh = append(fresh, in)
		}
	}
	if !reflect.DeepEqual(batch, fresh) {
		t.Fatalf("scratch batch %v differs from scratch-free plans %v", batch, fresh)
	}
	if len(batch) != 8 {
		t.Fatalf("planned %d intents, want 8", len(batch))
	}
	// A second batch after Reset must reuse the arena, not grow it.
	arenaCap := cap(sc.ids)
	sc.Reset()
	for node := overlay.NodeID(1); node <= 8; node++ {
		PlanRewire(mkView(node), tuning, &sc)
	}
	if cap(sc.ids) != arenaCap {
		t.Fatalf("arena regrew across Reset: cap %d -> %d", arenaCap, cap(sc.ids))
	}
}

// TestPlanRewireFastPathNoProviderCalls pins the tentpole's fast path:
// nodes at target degree without actionable distress never materialise a
// pool, whichever scalar keeps them healthy.
func TestPlanRewireFastPathNoProviderCalls(t *testing.T) {
	tuning := MaintenanceTuning{LowSupplyThreshold: 1, ReplaceCooldownRounds: 8, MaxDistressReplacements: 3}
	for _, tc := range []struct {
		name string
		mut  func(*MaintenanceView)
	}{
		{"no distress", func(v *MaintenanceView) { v.MissedLastRound = false }},
		{"cooldown", func(v *MaintenanceView) { v.LastReplace = v.Round - 1 }},
		{"cold", func(v *MaintenanceView) { v.Warm = false }},
		{"source", func(v *MaintenanceView) { v.IsSource = true }},
	} {
		prov := &staticView{}
		v := MaintenanceView{
			Node: 1, Warm: true, Round: 20, LastReplace: 0,
			Degree: 5, DegreeTarget: 5,
			MissedLastRound: true, MissStreak: 3,
			Provider: prov,
		}
		tc.mut(&v)
		if _, ok := PlanRewire(v, tuning, nil); ok {
			t.Fatalf("%s: rewire planned on the fast path", tc.name)
		}
		if prov.calls != 0 {
			t.Fatalf("%s: fast path materialised %d pools, want 0", tc.name, prov.calls)
		}
	}
}
