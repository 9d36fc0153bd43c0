package serve

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/gibbs/testutil"
	"repro/internal/wal"
)

// TestCrashRecoveryEquivalence is the serving chaos harness. For each
// datagen workload it runs a live server with a WAL, feeds it the workload's
// upserts through the HTTP API, and then simulates a crash at every point in
// the WAL byte stream that a kill can produce: a tear at each frame boundary
// (the process died after k appends — whether or not the k-th batch was
// applied in memory, the file is the same, which is exactly why replay must
// be idempotent) and a tear mid-frame (the process died inside an append).
// Each torn log is rebooted into a fresh server, and the recovered marginals
// must match an independent batch run over the same surviving evidence
// within the usual TV tolerance.
func TestCrashRecoveryEquivalence(t *testing.T) {
	for _, w := range equivWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "ev.wal")

			// Live phase: a durable server accepts every upsert. Every
			// append is fsynced, so each acked batch is on disk the moment
			// the handler answers — the file below is bit-identical to what
			// a SIGKILL right after the last ack would leave.
			sys := w.build(t, 7)
			srv, err := New(sys, Options{WALPath: walPath})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			for _, row := range w.upserts {
				if _, code := postUpsert(t, ts.URL, w.upsertRel, [][]string{row}); code != 200 {
					t.Fatalf("upsert status %d", code)
				}
			}
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			offs, err := wal.FrameOffsets(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(offs) != len(w.upserts)+1 {
				t.Fatalf("wal holds %d records, want %d", len(offs)-1, len(w.upserts))
			}

			// Crash points: every frame boundary, plus one cut inside the
			// last frame (recovers all but the final batch). The full
			// byte-by-byte tear sweep lives in the wal package tests; here
			// each surviving prefix is carried through grounding, warmup and
			// the query API.
			type crash struct {
				name string
				cut  int64
				k    int // records that survive the tear
			}
			n := len(w.upserts)
			crashes := make([]crash, 0, n+2)
			for k := 0; k <= n; k++ {
				crashes = append(crashes, crash{fmt.Sprintf("boundary%d", k), offs[k], k})
			}
			if offs[n]-offs[n-1] > 4 {
				crashes = append(crashes, crash{"midframe", offs[n] - 3, n - 1})
			}

			// One batch reference per distinct surviving-evidence prefix.
			refs := make(map[int]map[string][]float64)
			ref := func(k int) map[string][]float64 {
				if m, ok := refs[k]; ok {
					return m
				}
				m := batchMarginals(t, w, 3, w.upserts[:k])
				refs[k] = m
				return m
			}

			for _, c := range crashes {
				c := c
				t.Run(c.name, func(t *testing.T) {
					torn := filepath.Join(dir, c.name+".wal")
					if err := testutil.CopyFile(torn, walPath); err != nil {
						t.Fatal(err)
					}
					if err := testutil.TearFileAt(torn, c.cut); err != nil {
						t.Fatal(err)
					}

					// Reboot: fresh system from the CSVs, replayed WAL,
					// one ground + warmup — the syad boot path.
					rec, rts := startServer(t, w.build(t, 11), Options{WALPath: torn})
					if got := rec.ReplayStats().LogRecords; got != c.k {
						t.Fatalf("replayed %d records, want %d", got, c.k)
					}
					served := servedMarginals(t, rts.URL, w.queryRel)

					worst, key, err := testutil.KeyedMaxTV(served, ref(c.k))
					if err != nil {
						t.Fatal(err)
					}
					if worst > equivTol {
						t.Errorf("recovered vs batch marginals after %s: worst TV %.3f at %s (tol %.2f)",
							c.name, worst, key, equivTol)
					}
				})
			}
		})
	}
}
