package gibbs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/factorgraph"
	"repro/internal/frame"
)

// Checkpoint is a versioned snapshot of a sampler's full chain state:
// sampler kind, PRNG lineage (the seed all per-task streams derive from,
// plus per-instance epoch indices — the (seed, instance, epoch) triple
// determines every cell stream exactly), per-instance assignments and
// sample counters, and post-construction evidence pins. Restoring a
// checkpoint into a fresh sampler of the same kind over the same graph
// resumes the chain exactly: a run interrupted at a snapshot and completed
// after resume is bit-identical to an uninterrupted run whenever the
// sampler's epochs are scheduling-deterministic. PRNG streams are pinned to
// chunk identity (cell / bucket), never to worker interleaving, so this
// holds at any worker width — the sequential sampler unconditionally, the
// spatial sampler up to its conclique independence heuristic, hogwild up to
// its benign races on concurrently swept dependent variables.
//
// The serialized form is an internal/frame container holding exactly one
// frame, whose little-endian payload appendBody lays out.
type Checkpoint struct {
	// Sampler is the variant name ("spatial", "hogwild", "sequential").
	Sampler string
	// Seed is the sampler seed every per-task PRNG stream derives from.
	Seed int64
	// Epochs is the sampler's TotalEpochs at snapshot time.
	Epochs int64
	// Workers is the snapshotting sampler's worker width. Informational for
	// every variant: the spatial sampler's streams are per-cell and hogwild's
	// per-bucket, both independent of the width that executes them, so any
	// width resumes the same sampling program.
	Workers int64
	// RNG is the sequential chain's PRNG state (zero for the derived-stream
	// samplers, which carry no mutable PRNG state between epochs).
	RNG uint64
	// Pinned marks variables pinned by UpdateEvidence after construction
	// (nil when none; their values sit in the instance assignments).
	Pinned []bool
	// Instances holds per-chain state; one entry for hogwild/sequential, K
	// for the spatial sampler.
	Instances []InstanceState
}

// InstanceState is one chain's snapshot.
type InstanceState struct {
	// Epochs is the chain's epoch index (PRNG lineage component).
	Epochs int64
	// Assign is the chain's current assignment of every variable.
	Assign []int32
	// Counts are the accumulated per-variable per-value sample counts.
	Counts [][]int64
	// Totals are the per-variable count sums (recomputed on load).
	Totals []int64
}

// checkpointFormat is the container of a checkpoint file ("SYAC"). Version
// 1 was header | body | CRC-32 trailer; version 2 carries the same body as
// the one frame of the common layout. The frame has no limit of its own: a
// checkpoint is read whole from a file, so the file bounds it.
var checkpointFormat = frame.Format{Magic: 0x53594143, Version: 2, MaxPayload: math.MaxUint32, Name: "checkpoint"}

// WriteTo serializes the checkpoint to w. It implements io.WriterTo.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(cp.encode())
	return int64(n), err
}

// encode returns the checkpoint's file image: header plus one frame.
func (cp *Checkpoint) encode() []byte {
	return frame.Append(checkpointFormat.AppendHeader(nil), cp.appendBody(nil))
}

// appendBody appends the frame payload: sampler name, seed, epochs, workers,
// PRNG state, pins (u32 count + one byte each), then per instance its epoch
// index, assignment (u32 count + i32 each) and count rows (u32 variables,
// per variable u32 domain + i64 each). Strings and counts are u32-prefixed.
func (cp *Checkpoint) appendBody(b []byte) []byte {
	le := binary.LittleEndian
	b = append(le.AppendUint32(b, uint32(len(cp.Sampler))), cp.Sampler...)
	b = le.AppendUint64(b, uint64(cp.Seed))
	b = le.AppendUint64(b, uint64(cp.Epochs))
	b = le.AppendUint64(b, uint64(cp.Workers))
	b = le.AppendUint64(b, cp.RNG)
	b = le.AppendUint32(b, uint32(len(cp.Pinned)))
	for _, p := range cp.Pinned {
		if p {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = le.AppendUint32(b, uint32(len(cp.Instances)))
	for _, inst := range cp.Instances {
		b = le.AppendUint64(b, uint64(inst.Epochs))
		b = le.AppendUint32(b, uint32(len(inst.Assign)))
		for _, x := range inst.Assign {
			b = le.AppendUint32(b, uint32(x))
		}
		b = le.AppendUint32(b, uint32(len(inst.Counts)))
		for _, row := range inst.Counts {
			b = le.AppendUint32(b, uint32(len(row)))
			for _, c := range row {
				b = le.AppendUint64(b, uint64(c))
			}
		}
	}
	return b
}

// ReadCheckpoint deserializes a checkpoint from r; see decodeCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gibbs: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(raw)
}

// decodeCheckpoint parses a checkpoint file image strictly: the header must
// match and exactly one frame must follow, CRC-clean and fully consumed — a
// torn or corrupted file fails loudly rather than resuming from garbage.
func decodeCheckpoint(raw []byte) (cp *Checkpoint, err error) {
	_, err = checkpointFormat.Scan(raw, func(payload []byte) (err error) {
		if cp != nil {
			return errors.New("unexpected second frame")
		}
		cp, err = decodeBody(payload)
		return err
	})
	if err == nil && cp == nil {
		err = errors.New("checkpoint holds no frame")
	}
	if err != nil {
		return nil, fmt.Errorf("gibbs: %w", err)
	}
	return cp, nil
}

// decodeBody parses the frame payload appendBody wrote. Every count is
// checked against the bytes that remain before anything is allocated for it.
func decodeBody(payload []byte) (*Checkpoint, error) {
	c := frame.Cursor{Buf: payload}
	cp := &Checkpoint{}
	cp.Sampler = c.Str()
	cp.Seed = int64(c.U64())
	cp.Epochs = int64(c.U64())
	cp.Workers = int64(c.U64())
	cp.RNG = c.U64()
	if n := c.Count(1); n > 0 {
		cp.Pinned = make([]bool, n)
		for i := range cp.Pinned {
			cp.Pinned[i] = c.U8() != 0
		}
	}
	// An instance is at least its epoch index and two counts.
	for i, n := 0, c.Count(16); i < n && c.Err == nil; i++ {
		inst := InstanceState{Epochs: int64(c.U64())}
		inst.Assign = make([]int32, c.Count(4))
		for j := range inst.Assign {
			inst.Assign[j] = int32(c.U32())
		}
		nv := c.Count(4) // a count row is at least its domain prefix
		inst.Counts = make([][]int64, nv)
		inst.Totals = make([]int64, nv)
		for v := range inst.Counts {
			row := make([]int64, c.Count(8))
			for x := range row {
				row[x] = int64(c.U64())
				inst.Totals[v] += row[x]
			}
			inst.Counts[v] = row
		}
		cp.Instances = append(cp.Instances, inst)
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("decoding checkpoint: %w", err)
	}
	return cp, nil
}

// Checkpointer periodically persists sampler snapshots through
// frame.WriteFile: a crash mid-write leaves the previous checkpoint intact,
// and each save rotates the checkpoint it replaces to frame.PrevPath(Path), so
// even a save later found corrupted (e.g. a disk hiccup after the rename)
// leaves a verified older generation for ResumeFrom to fall back to.
type Checkpointer struct {
	// Path is the checkpoint file.
	Path string
	// Every is the epoch interval between snapshots (≤0 → 100).
	Every int
}

// interval resolves the snapshot cadence.
func (c *Checkpointer) interval() int {
	if c.Every <= 0 {
		return 100
	}
	return c.Every
}

// due reports whether a snapshot should be written after the given epoch.
func (c *Checkpointer) due(epoch int) bool { return epoch%c.interval() == 0 }

// Save publishes the snapshot at Path atomically and durably.
func (c *Checkpointer) Save(cp *Checkpoint) error {
	if err := frame.WriteFile(c.Path, cp.encode()); err != nil {
		return fmt.Errorf("gibbs: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and verifies a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(raw)
}

// ResumeFrom loads the checkpoint at path and restores it into s, falling
// back to the rotated previous generation (frame.PrevPath(path)) when the
// primary is missing, torn or corrupted. It returns the path actually
// restored from, so callers can tell a fallback resume apart from a primary
// one. The sampler must be freshly constructed over the same graph with the
// same kind and seed as the snapshotting run.
//
// The fallback covers load failures only (missing file, bad magic, CRC
// mismatch, truncation): a checkpoint that reads cleanly but fails Restore
// validation — wrong sampler kind, seed or graph shape — is a configuration
// error, not corruption, and is returned as-is. When both generations are
// unreadable the primary's error is returned (os.IsNotExist when the primary
// does not exist).
func ResumeFrom(s Sampler, path string) (string, error) {
	var cp *Checkpoint
	fallback, err := frame.LoadPair(path, func(raw []byte) (err error) {
		cp, err = decodeCheckpoint(raw)
		return err
	})
	if err == nil {
		err = s.Restore(cp)
	}
	if err != nil {
		return "", err
	}
	if fallback {
		path = frame.PrevPath(path)
	}
	return path, nil
}

// validateCheckpoint checks a checkpoint against the receiving sampler's
// identity and graph shape.
func validateCheckpoint(cp *Checkpoint, name string, seed int64, g *factorgraph.Graph, instances int) error {
	if cp.Sampler != name {
		return fmt.Errorf("gibbs: checkpoint is for sampler %q, not %q", cp.Sampler, name)
	}
	if cp.Seed != seed {
		return fmt.Errorf("gibbs: checkpoint seed %d does not match sampler seed %d (PRNG lineage would diverge)", cp.Seed, seed)
	}
	if len(cp.Instances) != instances {
		return fmt.Errorf("gibbs: checkpoint has %d instances, sampler has %d", len(cp.Instances), instances)
	}
	n := g.NumVars()
	if cp.Pinned != nil && len(cp.Pinned) != n {
		return fmt.Errorf("gibbs: checkpoint pins %d variables, graph has %d", len(cp.Pinned), n)
	}
	for k, inst := range cp.Instances {
		if len(inst.Assign) != n || len(inst.Counts) != n {
			return fmt.Errorf("gibbs: checkpoint instance %d covers %d/%d variables, graph has %d",
				k, len(inst.Assign), len(inst.Counts), n)
		}
		for v, row := range inst.Counts {
			if dom := int(g.Var(factorgraph.VarID(v)).Domain); len(row) != dom {
				return fmt.Errorf("gibbs: checkpoint variable %d has domain %d, graph has %d", v, len(row), dom)
			}
		}
	}
	return nil
}

// snapshotInstance clones one chain's state.
func snapshotInstance(epochs int, assign factorgraph.Assignment, cs *counts) InstanceState {
	inst := InstanceState{
		Epochs: int64(epochs),
		Assign: append([]int32(nil), assign...),
		Counts: make([][]int64, len(cs.c)),
		Totals: append([]int64(nil), cs.totals...),
	}
	for v, row := range cs.c {
		inst.Counts[v] = append([]int64(nil), row...)
	}
	return inst
}

// restoreInstance loads one chain's state (the checkpoint keeps ownership
// of nothing: all state is copied in).
func restoreInstance(inst InstanceState, assign factorgraph.Assignment, cs *counts) {
	copy(assign, inst.Assign)
	for v, row := range inst.Counts {
		copy(cs.c[v], row)
		cs.totals[v] = inst.Totals[v]
	}
}

// Snapshot implements Sampler. Call with no run in flight.
func (s *engine) Snapshot() *Checkpoint {
	cp := &Checkpoint{
		Sampler: s.name,
		Seed:    s.seed,
		Epochs:  int64(s.epochs),
		Workers: int64(s.workers),
	}
	if s.chain != nil {
		cp.RNG = s.chain.state
	}
	for _, p := range s.pinned {
		if p {
			cp.Pinned = append([]bool(nil), s.pinned...)
			break
		}
	}
	for _, inst := range s.instances {
		cp.Instances = append(cp.Instances, snapshotInstance(inst.epochs, inst.assign, inst.counts))
	}
	return cp
}

// Restore implements Sampler: loads a snapshot taken by the same sampler
// kind with the same seed over the same graph. Any worker width can restore
// any snapshot: the schedule and every PRNG stream derive from the graph and
// seed alone, so the resumed run executes the identical sampling program
// (cp.Workers is informational). The sequential sampler's lineage is its
// chain PRNG state, restored directly, so any seed's snapshot resumes
// exactly.
func (s *engine) Restore(cp *Checkpoint) error {
	if err := validateCheckpoint(cp, s.name, s.seed, s.g, len(s.instances)); err != nil {
		return err
	}
	s.epochs = int(cp.Epochs)
	if s.chain != nil {
		s.chain.state = cp.RNG
	}
	if cp.Pinned != nil {
		copy(s.pinned, cp.Pinned)
	} else {
		clear(s.pinned)
	}
	for k, inst := range s.instances {
		inst.epochs = int(cp.Instances[k].Epochs)
		restoreInstance(cp.Instances[k], inst.assign, inst.counts)
	}
	if s.restored != nil {
		s.restored()
	}
	return nil
}
