package gibbs_test

// Checkpoint/resume tests: snapshots must round-trip through the versioned
// binary format, a run interrupted at a snapshot and resumed into a fresh
// sampler must be bit-identical to an uninterrupted run, and torn or
// corrupted checkpoint files must be rejected by the frame CRC instead of
// resuming from garbage.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// determGraph is a harness graph for the bit-identical tests.
func determGraph(t *testing.T) *factorgraph.Graph {
	t.Helper()
	g, err := testutil.RandomGraph(testutil.Spec{Vars: 20, Spatial: true, Seed: 1234})
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	return g
}

// deterministicSamplers builds one sampler of each kind in its
// scheduling-deterministic configuration (spatial and hogwild with one
// worker — see the package comment on the determinism contract), so resumed
// and uninterrupted runs can be compared float-for-float.
func deterministicSamplers(t *testing.T, g *factorgraph.Graph) map[string]func() gibbs.Sampler {
	t.Helper()
	return map[string]func() gibbs.Sampler{
		"spatial": func() gibbs.Sampler {
			sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 1, Seed: 7})
			if err != nil {
				t.Fatalf("NewSpatial: %v", err)
			}
			return sp
		},
		"hogwild":    func() gibbs.Sampler { return gibbs.NewHogwild(g, 7, 1) },
		"sequential": func() gibbs.Sampler { return gibbs.NewSequential(g, 7) },
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := determGraph(t)
	for name, mk := range deterministicSamplers(t, g) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if _, err := s.Run(context.Background(), 6); err != nil {
				t.Fatalf("Run: %v", err)
			}
			cp := s.Snapshot()
			var buf bytes.Buffer
			if _, err := cp.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			got, err := gibbs.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadCheckpoint: %v", err)
			}
			if !reflect.DeepEqual(cp, got) {
				t.Errorf("checkpoint did not round-trip:\n  want %+v\n  got  %+v", cp, got)
			}
		})
	}
}

func TestResumeIsBitIdentical(t *testing.T) {
	g := determGraph(t)
	const total, cut = 12, 5
	for name, mk := range deterministicSamplers(t, g) {
		t.Run(name, func(t *testing.T) {
			// Reference: one uninterrupted run.
			ref := mk()
			if _, err := ref.Run(context.Background(), total); err != nil {
				t.Fatalf("reference run: %v", err)
			}
			want := ref.Marginals()
			ref.Close()

			// Interrupted run: cut epochs, snapshot, resume into a FRESH
			// sampler, finish the budget.
			first := mk()
			if _, err := first.Run(context.Background(), cut); err != nil {
				t.Fatalf("first leg: %v", err)
			}
			cp := first.Snapshot()
			first.Close()

			resumed := mk()
			defer resumed.Close()
			if err := resumed.Restore(cp); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if resumed.TotalEpochs() != cut {
				t.Fatalf("TotalEpochs after restore = %d, want %d", resumed.TotalEpochs(), cut)
			}
			if _, err := resumed.Run(context.Background(), total-cut); err != nil {
				t.Fatalf("second leg: %v", err)
			}
			got := resumed.Marginals()
			for v := range want {
				for x := range want[v] {
					if want[v][x] != got[v][x] {
						t.Fatalf("marginal[%d][%d]: uninterrupted %v, resumed %v — resume is not bit-identical",
							v, x, want[v][x], got[v][x])
					}
				}
			}
		})
	}
}

func TestCheckpointerPeriodicSaveAndResume(t *testing.T) {
	g := determGraph(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	const total, every = 10, 4

	// Reference run, no checkpointing.
	mk := deterministicSamplers(t, g)["spatial"]
	ref := mk()
	if _, err := ref.Run(context.Background(), total); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := ref.Marginals()
	ref.Close()

	// Checkpointed run "crashes" after 8 epochs (the last snapshot lands at
	// epoch 8 = 2×every).
	s := mk()
	s.SetCheckpointer(&gibbs.Checkpointer{Path: path, Every: every})
	if _, err := s.Run(context.Background(), 8); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	s.Close() // the crash: state lost, only the file survives

	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after atomic save: %v", err)
	}
	cp, err := gibbs.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if cp.Epochs != 8 {
		t.Errorf("checkpoint at epoch %d, want 8", cp.Epochs)
	}

	// Resume from disk and finish the budget: bit-identical to the
	// uninterrupted reference.
	resumed := mk()
	defer resumed.Close()
	from, err := gibbs.ResumeFrom(resumed, path)
	if err != nil {
		t.Fatalf("ResumeFrom: %v", err)
	}
	if from != path {
		t.Errorf("resumed from %q, want the primary %q", from, path)
	}
	if _, err := resumed.Run(context.Background(), total-8); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got := resumed.Marginals()
	for v := range want {
		if !reflect.DeepEqual(want[v], got[v]) {
			t.Fatalf("marginal[%d]: uninterrupted %v, resumed %v", v, want[v], got[v])
		}
	}
}

func TestTornAndCorruptedCheckpointsRejected(t *testing.T) {
	g := determGraph(t)
	s := gibbs.NewSequential(g, 7)
	defer s.Close()
	if _, err := s.Run(context.Background(), 3); err != nil {
		t.Fatalf("Run: %v", err)
	}
	dir := t.TempDir()
	write := func(name string) string {
		path := filepath.Join(dir, name)
		if err := (&gibbs.Checkpointer{Path: path}).Save(s.Snapshot()); err != nil {
			t.Fatalf("Save: %v", err)
		}
		return path
	}

	torn := write("torn.ckpt")
	if err := testutil.TearFile(torn); err != nil {
		t.Fatalf("TearFile: %v", err)
	}
	if _, err := gibbs.LoadCheckpoint(torn); err == nil {
		t.Error("torn checkpoint loaded without error")
	}

	corrupt := write("corrupt.ckpt")
	if err := testutil.CorruptFile(corrupt); err != nil {
		t.Fatalf("CorruptFile: %v", err)
	}
	if _, err := gibbs.LoadCheckpoint(corrupt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted checkpoint: got %v, want checksum error", err)
	}

	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gibbs.LoadCheckpoint(empty); err == nil {
		t.Error("empty checkpoint loaded without error")
	}

	notmagic := filepath.Join(dir, "notmagic.ckpt")
	if err := os.WriteFile(notmagic, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gibbs.LoadCheckpoint(notmagic); err == nil {
		t.Error("non-checkpoint file loaded without error")
	}
}

func TestRestoreValidatesIdentity(t *testing.T) {
	g := determGraph(t)
	mk := deterministicSamplers(t, g)

	seq := mk["sequential"]()
	defer seq.Close()
	if _, err := seq.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	cp := seq.Snapshot()

	// Wrong sampler kind.
	sp := mk["spatial"]()
	defer sp.Close()
	if err := sp.Restore(cp); err == nil {
		t.Error("spatial sampler accepted a sequential checkpoint")
	}

	// Wrong seed.
	other, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	spcp := func() *gibbs.Checkpoint {
		s := mk["spatial"]()
		defer s.Close()
		if _, err := s.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
		return s.Snapshot()
	}()
	if err := other.Restore(spcp); err == nil {
		t.Error("spatial sampler accepted a checkpoint with a different seed")
	}

	// Worker width is NOT part of checkpoint identity: hogwild's bucket
	// partition and PRNG streams derive from (graph, seed) alone, so any
	// width resumes any snapshot.
	h1 := gibbs.NewHogwild(g, 7, 1)
	defer h1.Close()
	if _, err := h1.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	hcp := h1.Snapshot()
	h2 := gibbs.NewHogwild(g, 7, 2)
	defer h2.Close()
	if err := h2.Restore(hcp); err != nil {
		t.Errorf("hogwild rejected a checkpoint from a different worker width: %v", err)
	}

	// Wrong graph shape.
	small, err := testutil.RandomGraph(testutil.Spec{Vars: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seqSmall := gibbs.NewSequential(small, 7)
	defer seqSmall.Close()
	if err := seqSmall.Restore(cp); err == nil {
		t.Error("sampler over a different graph accepted the checkpoint")
	}
}

func TestCheckpointDuringCanceledRunKeepsLastSnapshot(t *testing.T) {
	g := determGraph(t)
	path := filepath.Join(t.TempDir(), "cancel.ckpt")
	s := deterministicSamplers(t, g)["spatial"]()
	defer s.Close()
	s.SetCheckpointer(&gibbs.Checkpointer{Path: path, Every: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.(hooked).SetTestHooks(gibbs.TestHooks{AfterEpoch: testutil.CancelAtEpoch(cancel, 5)})
	st, err := s.Run(ctx, 100)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Reason != gibbs.ReasonCanceled {
		t.Fatalf("Reason = %v, want ReasonCanceled", st.Reason)
	}
	cp, err := gibbs.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint after cancel: %v", err)
	}
	if cp.Epochs != 4 {
		t.Errorf("last snapshot at epoch %d, want 4 (the last Every=2 boundary before the cancel at 5)", cp.Epochs)
	}
}

// independentGraph builds a graph whose query variables never interact:
// each has a unary prior and an implication from a fixed evidence atom,
// and there are no query–query factors or spatial pairs. On such a graph
// every sweep schedule produces the same chain, so the parallel samplers
// are bit-identical at ANY worker width — which isolates exactly the
// property the multi-worker resume test needs to see: PRNG streams pinned
// to chunk identity (hogwild bucket / pyramid cell), never to the worker
// that happens to execute the chunk. Query atoms carry locations so the
// spatial sampler schedules them through real conclique cell sweeps
// rather than the serial tail.
func independentGraph(t *testing.T) *factorgraph.Graph {
	t.Helper()
	b := factorgraph.NewBuilder()
	const n = 300 // several hogwild buckets' worth (hogwildGrain = 64)
	for i := 0; i < n; i++ {
		q, err := b.AddVariable(factorgraph.Variable{
			Domain:   2,
			Evidence: factorgraph.NoEvidence,
			Loc:      geom.Pt(float64(i%20)*5, float64(i/20)*7),
			HasLoc:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: int32(i % 2)})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddFactor(factorgraph.FactorIsTrue, 0.2+0.05*float64(i%7), []factorgraph.VarID{q}, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.AddFactor(factorgraph.FactorImply, 0.6, []factorgraph.VarID{ev, q}, []bool{false, i%3 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMultiWorkerResumeIsBitIdentical is the satellite-2 contract: a chain
// snapshotted under one worker width and resumed under another matches an
// uninterrupted single-worker run float-for-float, because the bucket
// partition and every PRNG stream derive from (graph, seed) alone.
func TestMultiWorkerResumeIsBitIdentical(t *testing.T) {
	g := independentGraph(t)
	const total, cut = 12, 5

	check := func(t *testing.T, want, got [][]float64) {
		t.Helper()
		for v := range want {
			for x := range want[v] {
				if want[v][x] != got[v][x] {
					t.Fatalf("marginal[%d][%d]: uninterrupted %v, resumed %v — multi-worker resume is not bit-identical",
						v, x, want[v][x], got[v][x])
				}
			}
		}
	}

	t.Run("hogwild", func(t *testing.T) {
		ref := gibbs.NewHogwild(g, 11, 1)
		if _, err := ref.Run(context.Background(), total); err != nil {
			t.Fatal(err)
		}
		want := ref.Marginals()
		ref.Close()

		// Cut at four workers, resume at two: width is not chain identity.
		first := gibbs.NewHogwild(g, 11, 4)
		if _, err := first.Run(context.Background(), cut); err != nil {
			t.Fatal(err)
		}
		cp := first.Snapshot()
		first.Close()

		resumed := gibbs.NewHogwild(g, 11, 2)
		defer resumed.Close()
		if err := resumed.Restore(cp); err != nil {
			t.Fatalf("Restore across worker widths: %v", err)
		}
		if _, err := resumed.Run(context.Background(), total-cut); err != nil {
			t.Fatal(err)
		}
		check(t, want, resumed.Marginals())
	})

	t.Run("spatial", func(t *testing.T) {
		mk := func(workers int) *gibbs.Spatial {
			s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: workers, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		ref := mk(1)
		if _, err := ref.Run(context.Background(), total); err != nil {
			t.Fatal(err)
		}
		want := ref.Marginals()
		ref.Close()

		first := mk(4)
		if _, err := first.Run(context.Background(), cut); err != nil {
			t.Fatal(err)
		}
		cp := first.Snapshot()
		first.Close()

		resumed := mk(2)
		defer resumed.Close()
		if err := resumed.Restore(cp); err != nil {
			t.Fatalf("Restore across worker widths: %v", err)
		}
		if _, err := resumed.Run(context.Background(), total-cut); err != nil {
			t.Fatal(err)
		}
		check(t, want, resumed.Marginals())
	})
}
