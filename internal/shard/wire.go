package shard

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
)

// Halo payload: u32 entry count, then per changed boundary variable its
// index into the (statically known, both-sides identical) per-direction
// variable list followed by the K instances' values. A variable absent from
// the delta keeps its previous halo value on the receiver.

// encodeHalo diffs the current var-major values (K per variable) against
// last (nil on the first exchange: everything is sent) and returns the
// sparse delta payload.
func encodeHalo(cur, last []int32, k int) []byte {
	nvars := len(cur) / k
	changed := make([]int, 0, nvars)
	for i := 0; i < nvars; i++ {
		if last == nil {
			changed = append(changed, i)
			continue
		}
		for j := 0; j < k; j++ {
			if cur[i*k+j] != last[i*k+j] {
				changed = append(changed, i)
				break
			}
		}
	}
	out := make([]byte, 0, 4+len(changed)*(4+4*k))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(changed)))
	for _, i := range changed {
		out = binary.LittleEndian.AppendUint32(out, uint32(i))
		for j := 0; j < k; j++ {
			out = binary.LittleEndian.AppendUint32(out, uint32(cur[i*k+j]))
		}
	}
	return out
}

// decodeHalo parses a halo delta, calling apply for each entry with the
// K values scratch slice (reused across calls). The frame's size is checked
// against its entry count before the first entry is applied.
func decodeHalo(p []byte, k, nvars int, apply func(idx int, vals []int32) error) error {
	c := frame.Cursor{Buf: p}
	n := c.Count(4 + 4*k)
	if c.Err != nil {
		return fmt.Errorf("halo frame: %w", c.Err)
	}
	if len(c.Buf) != n*(4+4*k) {
		return fmt.Errorf("halo frame size %d does not match %d entries × %d chains", len(p), n, k)
	}
	vals := make([]int32, k)
	for e := 0; e < n; e++ {
		idx := int(c.U32())
		if idx < 0 || idx >= nvars {
			return fmt.Errorf("halo frame entry %d: index %d outside boundary list (%d vars)", e, idx, nvars)
		}
		for j := range vals {
			vals[j] = int32(c.U32())
		}
		if err := apply(idx, vals); err != nil {
			return err
		}
	}
	return nil
}

// Counts payload: u32 row count, then per sampled interior variable its
// full-graph id, domain size, and per-value counts — a sparse row set
// (unsampled variables are omitted) read from the sampler's counters and
// merged by the coordinator into the global marginal view.

// encodeCounts serializes the non-zero rows. vids[i] is rows[i]'s
// full-graph variable id.
func encodeCounts(vids []int64, rows [][]int64) []byte {
	out := make([]byte, 0, 4)
	n := 0
	out = binary.LittleEndian.AppendUint32(out, 0) // patched below
	for i, row := range rows {
		var total int64
		for _, c := range row {
			total += c
		}
		if total == 0 {
			continue
		}
		n++
		out = binary.LittleEndian.AppendUint32(out, uint32(vids[i]))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(row)))
		for _, c := range row {
			out = binary.LittleEndian.AppendUint64(out, uint64(c))
		}
	}
	binary.LittleEndian.PutUint32(out[0:4], uint32(n))
	return out
}

// decodeCounts parses a counts payload, calling apply per row. A row is
// allocated only once its values are known to be in the frame.
func decodeCounts(p []byte, apply func(vid int, row []int64) error) error {
	c := frame.Cursor{Buf: p}
	for e, n := 0, c.Count(6); e < n; e++ {
		vid := int(c.U32())
		row := make([]int64, c.Count16(8))
		for j := range row {
			row[j] = int64(c.U64())
		}
		if c.Err != nil {
			return fmt.Errorf("counts frame row %d: %w", e, c.Err)
		}
		if err := apply(vid, row); err != nil {
			return err
		}
	}
	if err := c.Done(); err != nil {
		return fmt.Errorf("counts frame: %w", err)
	}
	return nil
}
