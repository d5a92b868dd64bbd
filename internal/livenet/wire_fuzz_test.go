package livenet

import (
	"bytes"
	"reflect"
	"testing"

	"continustreaming/internal/buffer"
)

// FuzzWireDecode drives DecodeMessage with arbitrary bytes: it must
// never panic or over-allocate, and anything it accepts must re-encode
// to a decode-equal message (the codec's round-trip invariant holds for
// every accepted input, not just frames we produced). The decoder
// accepts two versions — current frames with the period stamp and the
// version-1 fallback without it — so the invariant runs accepted v1
// inputs through the v1→v2 upgrade path: re-encoding always emits the
// current version, and the upgraded frame must decode back to the same
// message. Seed corpus under testdata/fuzz/FuzzWireDecode covers every
// message kind in both versions plus known rejection shapes; CI extends
// it with a timed fuzz run.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Period-stamped current-version seeds: a push-hop data frame, a
	// rescue grant, and a map announcement with gossip — the three
	// stamped shapes the re-sync path actually sends.
	b := buffer.New(64, 40)
	b.Insert(47)
	snap := b.Snapshot()
	for _, m := range []Message{
		{Kind: msgData, From: 3, Seg: 1200, Hop: 1, Period: 41},
		{Kind: msgData, From: 9, Seg: 77, Rescue: true, Period: 12},
		{Kind: msgMap, From: 2, Period: 77, Map: &snap, Gossip: []int{5, 11}},
	} {
		frame, err := EncodeMessage(m)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(frame)
	}
	// A map announcement with an availability bit set past the map's
	// size: the decoder must reject it, since word-level consumers would
	// read the bit as an ID beyond the window.
	frame, err := EncodeMessage(Message{Kind: msgMap, From: 4, Period: 9, Map: &buffer.Map{Lo: 40, Size: 60, Bits: []uint64{1 << 62}}})
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if m.Map != nil {
			if r := uint(m.Map.Size) & 63; r != 0 && m.Map.Bits[len(m.Map.Bits)-1]>>r != 0 {
				t.Fatalf("decoded map of size %d advertises bits past its size: %x", m.Map.Size, m.Map.Bits)
			}
		}
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		m2, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message (input version %d)\nfirst  %+v\nsecond %+v", data[4], m, m2)
		}
		// Re-encoding must be stable: the second decode equals the first.
		f2, err := EncodeMessage(m2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(frame, f2) {
			t.Fatalf("encode not stable:\nfirst  %x\nsecond %x", frame, f2)
		}
	})
}
