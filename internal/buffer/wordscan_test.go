package buffer

import (
	"testing"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// randomBuffer fills a buffer of the given size and origin with a random
// ~half-full occupancy pattern.
func randomBuffer(rng *sim.RNG, size int, lo segment.ID) *Buffer {
	b := New(size, lo)
	for i := 0; i < size; i++ {
		if rng.Intn(2) == 0 {
			b.Insert(lo + segment.ID(i))
		}
	}
	return b
}

// TestAppendMissingInMatchesReference drives the word-scan enumeration
// against the obvious per-ID reference over random buffers and windows,
// including windows hanging off both buffer edges and empty intersections.
func TestAppendMissingInMatchesReference(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x5ca9)
	for trial := 0; trial < 2000; trial++ {
		size := 1 + rng.Intn(200)
		lo := segment.ID(rng.Intn(500))
		b := randomBuffer(rng, size, lo)
		wlo := lo + segment.ID(rng.Intn(2*size+20)) - segment.ID(size/2+10)
		w := segment.Window{Lo: wlo, Hi: wlo + segment.ID(rng.Intn(size+20))}

		got := b.AppendMissingIn(nil, w)

		var want []segment.ID
		ref := w.Intersect(b.Window())
		for id := ref.Lo; id < ref.Hi; id++ {
			if !b.Has(id) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (size=%d lo=%d w=%+v): got %d missing, want %d", trial, size, lo, w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: missing[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestAppendMissingInPreservesPrefix checks the arena contract: appended
// results land after an existing prefix without disturbing it.
func TestAppendMissingInPreservesPrefix(t *testing.T) {
	b := New(64, 0)
	b.Insert(3)
	prefix := []segment.ID{901, 902}
	out := b.AppendMissingIn(prefix, segment.Window{Lo: 2, Hi: 6})
	want := []segment.ID{901, 902, 2, 4, 5}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
}

// TestMissingWordsMatchesReference checks absence rows against per-ID
// probes, over a buffer's live view (the simulator's push probe) and over
// a snapshot (livenet's announced maps): every bit below the window width
// reports the ID absent, with IDs outside the buffer window counting as
// absent, bits past the width stay clear, and rows shorter than the width
// cover only their leading words.
func TestMissingWordsMatchesReference(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x3d0f)
	for trial := 0; trial < 2000; trial++ {
		size := 1 + rng.Intn(200)
		lo := segment.ID(rng.Intn(500))
		b := randomBuffer(rng, size, lo)
		m := b.View()
		if trial%2 == 1 {
			m = b.Snapshot()
		}
		wlo := lo + segment.ID(rng.Intn(2*size+20)) - segment.ID(size/2+10)
		w := segment.Window{Lo: wlo, Hi: wlo + segment.ID(rng.Intn(260))}
		row := make([]uint64, 1+rng.Intn(5))
		for k := range row {
			row[k] = rng.Uint64() // stale contents must be overwritten
		}

		m.MissingWords(row, w)

		for i := 0; i < 64*len(row); i++ {
			want := i < int(w.Hi-w.Lo) && !b.Has(w.Lo+segment.ID(i))
			if got := row[i>>6]&(1<<uint(i&63)) != 0; got != want {
				t.Fatalf("trial %d (size=%d lo=%d w=%+v words=%d): bit %d = %v, want %v", trial, size, lo, w, len(row), i, got, want)
			}
		}
	}
}
