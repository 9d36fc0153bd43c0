package gibbs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/factorgraph"
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
// The serialized form is little-endian binary: a magic/version header, the
// payload, and a CRC-32 trailer that detects torn or corrupted files.
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

// Checkpoint file format constants.
const (
	checkpointMagic = 0x53594143 // "SYAC"
	// CheckpointVersion is the current serialization version. Readers
	// reject other versions.
	CheckpointVersion = 1
)

// WriteTo serializes the checkpoint (magic, version, payload, CRC-32
// trailer) to w. It implements io.WriterTo.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	put32 := func(v uint32) {
		var b [4]byte
		le.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	put64 := func(v uint64) {
		var b [8]byte
		le.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	put32(checkpointMagic)
	put32(CheckpointVersion)
	put32(uint32(len(cp.Sampler)))
	buf.WriteString(cp.Sampler)
	put64(uint64(cp.Seed))
	put64(uint64(cp.Epochs))
	put64(uint64(cp.Workers))
	put64(cp.RNG)
	put32(uint32(len(cp.Pinned)))
	for _, p := range cp.Pinned {
		if p {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	put32(uint32(len(cp.Instances)))
	for _, inst := range cp.Instances {
		put64(uint64(inst.Epochs))
		put32(uint32(len(inst.Assign)))
		for _, x := range inst.Assign {
			put32(uint32(x))
		}
		put32(uint32(len(inst.Counts)))
		for _, row := range inst.Counts {
			put32(uint32(len(row)))
			for _, c := range row {
				put64(uint64(c))
			}
		}
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	put32(crc)
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadCheckpoint deserializes a checkpoint, verifying the magic, version
// and CRC-32 trailer — a torn or corrupted file fails loudly rather than
// resuming from garbage.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gibbs: reading checkpoint: %w", err)
	}
	if len(raw) < 12 {
		return nil, fmt.Errorf("gibbs: checkpoint truncated (%d bytes)", len(raw))
	}
	le := binary.LittleEndian
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), le.Uint32(trailer); got != want {
		return nil, fmt.Errorf("gibbs: checkpoint checksum mismatch (got %08x, want %08x): torn or corrupted file", got, want)
	}
	d := &decoder{buf: body}
	if m := d.u32(); m != checkpointMagic {
		return nil, fmt.Errorf("gibbs: not a checkpoint file (magic %08x)", m)
	}
	if v := d.u32(); v != CheckpointVersion {
		return nil, fmt.Errorf("gibbs: unsupported checkpoint version %d (want %d)", v, CheckpointVersion)
	}
	cp := &Checkpoint{}
	cp.Sampler = d.str()
	cp.Seed = int64(d.u64())
	cp.Epochs = int64(d.u64())
	cp.Workers = int64(d.u64())
	cp.RNG = d.u64()
	if n := d.u32(); n > 0 {
		cp.Pinned = make([]bool, n)
		for i := range cp.Pinned {
			cp.Pinned[i] = d.byte() != 0
		}
	}
	ninst := d.u32()
	for i := uint32(0); i < ninst && d.err == nil; i++ {
		var inst InstanceState
		inst.Epochs = int64(d.u64())
		na := d.u32()
		inst.Assign = make([]int32, 0, na)
		for j := uint32(0); j < na && d.err == nil; j++ {
			inst.Assign = append(inst.Assign, int32(d.u32()))
		}
		nv := d.u32()
		inst.Counts = make([][]int64, 0, nv)
		inst.Totals = make([]int64, 0, nv)
		for j := uint32(0); j < nv && d.err == nil; j++ {
			dom := d.u32()
			row := make([]int64, 0, dom)
			var total int64
			for x := uint32(0); x < dom && d.err == nil; x++ {
				c := int64(d.u64())
				row = append(row, c)
				total += c
			}
			inst.Counts = append(inst.Counts, row)
			inst.Totals = append(inst.Totals, total)
		}
		cp.Instances = append(cp.Instances, inst)
	}
	if d.err != nil {
		return nil, fmt.Errorf("gibbs: decoding checkpoint: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("gibbs: checkpoint has %d trailing bytes", len(d.buf))
	}
	return cp, nil
}

// decoder is a cursor over the checkpoint payload; the first short read
// latches err and zero-values every later read.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) str() string {
	n := d.u32()
	if n > 1<<16 {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	return string(d.take(int(n)))
}

// Checkpointer periodically persists sampler snapshots with atomic
// temp-file+rename writes: a crash mid-write leaves the previous checkpoint
// intact, and a torn rename target is caught by the CRC trailer on load.
// Saves rotate a checkpoint pair: before the new snapshot lands on Path the
// previous one is moved to Path+".prev", so even a save whose rename target
// is later found corrupted (e.g. a disk hiccup after the rename) leaves a
// verified older generation for ResumeFrom to fall back to.
type Checkpointer struct {
	// Path is the checkpoint file. Writes go to Path+".tmp" first; the
	// previous generation is kept at Path+".prev".
	Path string
	// Every is the epoch interval between snapshots (≤0 → 100).
	Every int
}

// PrevPath returns the rotation target holding the previous checkpoint
// generation for a given checkpoint path.
func PrevPath(path string) string { return path + ".prev" }

// interval resolves the snapshot cadence.
func (c *Checkpointer) interval() int {
	if c.Every <= 0 {
		return 100
	}
	return c.Every
}

// due reports whether a snapshot should be written after the given epoch.
func (c *Checkpointer) due(epoch int) bool { return epoch%c.interval() == 0 }

// Save writes the snapshot atomically: serialize to Path+".tmp", fsync,
// rotate the current checkpoint to Path+".prev", then rename the temp file
// over Path. A crash between the two renames leaves only the .prev file,
// which ResumeFrom loads via its fallback.
func (c *Checkpointer) Save(cp *Checkpoint) error {
	tmp := c.Path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("gibbs: checkpoint: %w", err)
	}
	if _, err := cp.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("gibbs: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("gibbs: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("gibbs: checkpoint: %w", err)
	}
	if err := os.Rename(c.Path, PrevPath(c.Path)); err != nil && !os.IsNotExist(err) {
		os.Remove(tmp)
		return fmt.Errorf("gibbs: checkpoint: rotating previous: %w", err)
	}
	if err := os.Rename(tmp, c.Path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("gibbs: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and verifies a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ResumeFrom loads the checkpoint at path and restores it into s, falling
// back to the rotated previous generation (PrevPath(path)) when the primary
// is missing, torn or corrupted. It returns the path actually restored from,
// so callers can tell a fallback resume apart from a primary one. The
// sampler must be freshly constructed over the same graph with the same kind
// and seed as the snapshotting run.
//
// The fallback covers load failures only (missing file, bad magic, CRC
// mismatch, truncation): a checkpoint that reads cleanly but fails Restore
// validation — wrong sampler kind, seed or graph shape — is a configuration
// error, not corruption, and is returned as-is. When both generations are
// unreadable the primary's error is returned (os.IsNotExist when neither
// file exists).
func ResumeFrom(s Sampler, path string) (string, error) {
	cp, err := LoadCheckpoint(path)
	if err != nil {
		prev := PrevPath(path)
		pcp, perr := LoadCheckpoint(prev)
		if perr != nil {
			return "", err
		}
		if rerr := s.Restore(pcp); rerr != nil {
			return "", rerr
		}
		return prev, nil
	}
	if err := s.Restore(cp); err != nil {
		return "", err
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
