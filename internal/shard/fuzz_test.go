package shard

import (
	"testing"
)

// FuzzShardWire feeds arbitrary frame payloads through decodeMessage into
// the halo and counts decoders: nothing panics, no halo entry indexes outside
// the boundary list or carries a wrong number of chain values, and a payload
// that decodes stops decoding once a byte is appended to it.
func FuzzShardWire(f *testing.F) {
	for _, m := range goldenMessages() {
		f.Add(encodeMessage(m), uint8(2), uint8(3))
	}
	f.Add([]byte{1, 2, 3}, uint8(1), uint8(1))
	f.Add(encodeMessage(Message{Kind: MsgHalo, Payload: []byte{0xff, 0xff, 0xff, 0xff}}), uint8(1), uint8(200))
	f.Add(encodeMessage(Message{Kind: MsgCounts, Payload: []byte{1, 0, 0, 0, 9, 0, 0, 0, 0xff, 0xff}}), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, chains, boundary uint8) {
		m, ok := decodeMessage(raw)
		if !ok {
			if len(raw) >= 13 {
				t.Fatalf("a %d-byte message was refused", len(raw))
			}
			return
		}
		k, nvars := int(chains%4)+1, int(boundary)
		var decode func(p []byte) error
		switch m.Kind {
		case MsgHalo:
			decode = func(p []byte) error {
				return decodeHalo(p, k, nvars, func(idx int, vals []int32) error {
					if idx < 0 || idx >= nvars || len(vals) != k {
						t.Fatalf("halo entry index %d (%d values) with %d boundary variables × %d chains", idx, len(vals), nvars, k)
					}
					return nil
				})
			}
		case MsgCounts:
			decode = func(p []byte) error {
				return decodeCounts(p, func(vid int, row []int64) error {
					if 8*len(row) > len(p) {
						t.Fatalf("counts row of %d values out of a %d-byte payload", len(row), len(p))
					}
					return nil
				})
			}
		default:
			return
		}
		if decode(m.Payload) == nil && decode(append(append([]byte(nil), m.Payload...), 0)) == nil {
			t.Fatal("payload still decodes with a trailing byte")
		}
	})
}
