package serve

// One trace vocabulary: a batch run, a sharded run, an upsert, an upsert that
// re-grounds, a lazy point query and a boot all record the same kind of span
// tree, under stage names DESIGN.md's "Span model" table fixes. This is the
// one table over all of them.

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/storage"
)

// stagePaths renders every span of a finished trace as its path from the
// root ("resample>core.infer>gibbs.steady"), checking the tree invariants on
// the way: a parent is recorded before its children and no span is left
// open.
func stagePaths(t *testing.T, rec *obs.TraceRecord) map[string]obs.SpanRecord {
	t.Helper()
	paths := make([]string, len(rec.Spans))
	out := map[string]obs.SpanRecord{}
	for i, sp := range rec.Spans {
		if sp.DurUs < 0 {
			t.Errorf("span %d (%s) left open: dur %d", i, sp.Name, sp.DurUs)
		}
		if i == 0 {
			if sp.Parent != -1 {
				t.Errorf("root parent = %d, want -1", sp.Parent)
			}
			continue
		}
		if sp.Parent < 0 || sp.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d, want an earlier span", i, sp.Name, sp.Parent)
		}
		paths[i] = sp.Name
		if sp.Parent > 0 {
			paths[i] = paths[sp.Parent] + ">" + sp.Name
		}
		out[paths[i]] = sp
	}
	return out
}

func TestSpanTreeAcrossPaths(t *testing.T) {
	bong := datagen.EbolaCounties()[2]
	newTracer := func() *obs.Tracer { return obs.NewTracer(obs.TracerOptions{RingSize: 8}) }
	// traced runs fn under a fresh root span and returns the finished record.
	traced := func(t *testing.T, name string, fn func(ctx context.Context) error) *obs.TraceRecord {
		tracer := newTracer()
		root := tracer.StartRequest(name, "")
		if err := fn(obs.ContextWithSpan(context.Background(), root)); err != nil {
			t.Fatal(err)
		}
		root.Finish("ok")
		return tracer.Recent(1)[0]
	}
	// served boots a traced server, sends one request and returns its trace.
	served := func(t *testing.T, opts Options, endpoint string, request func(base string)) *obs.TraceRecord {
		opts.Tracer = newTracer()
		sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 400})
		_, ts := startServer(t, sys, opts)
		request(ts.URL)
		rec := opts.Tracer.Recent(1)[0]
		if rec.Name != endpoint || rec.Outcome != "ok" {
			t.Fatalf("newest trace = %s/%s, want %s/ok", rec.Name, rec.Outcome, endpoint)
		}
		return rec
	}
	groundStages := []string{
		"core.ground>grounding.rules>derivation", "core.ground>grounding.rules>rule", "core.ground>grounding.spatial>spatial",
	}
	under := func(prefix string, stages []string) []string {
		out := make([]string, len(stages))
		for i, s := range stages {
			out[i] = prefix + ">" + s
		}
		return out
	}

	cases := []struct {
		name   string
		record func(t *testing.T) *obs.TraceRecord
		want   []string          // stage paths that must be present
		absent []string          // stage names that must not appear anywhere
		notes  map[string]string // path → required note prefix
	}{
		{
			name: "batch ground + learn + infer",
			record: func(t *testing.T) *obs.TraceRecord {
				sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7})
				defer sys.Close()
				return traced(t, "batch", func(ctx context.Context) error {
					if _, err := sys.GroundContext(ctx); err != nil {
						return err
					}
					if _, err := sys.LearnWeightsContext(ctx, learn.Options{Iterations: 3, Seed: 7}); err != nil {
						return err
					}
					_, _, err := sys.InferContext(ctx, 40)
					return err
				})
			},
			want: append([]string{"learn.weights>iteration",
				"core.infer>gibbs.build", "core.infer>gibbs.steady", "core.infer>gibbs.marginals"}, groundStages...),
			notes: map[string]string{
				"core.ground":                      "vars=4 evidence=1 query=3 ",
				"core.ground>grounding.rules>rule": "rule=R1 rows=",
				"learn.weights":                    "iterations=3 ",
				"core.infer>gibbs.steady":          "epochs=20 reason=done sampler=spatial",
			},
		},
		{
			// Runs under -race in CI: the node goroutines must record nothing.
			name: "sharded batch, 2 shards",
			record: func(t *testing.T) *obs.TraceRecord {
				sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Shards: 2})
				defer sys.Close()
				return traced(t, "batch", func(ctx context.Context) error {
					if _, err := sys.GroundContext(ctx); err != nil {
						return err
					}
					_, _, err := sys.InferContext(ctx, 40)
					return err
				})
			},
			want:   append([]string{"core.infer>shard.build", "core.infer>shard.run", "core.infer>gibbs.marginals"}, groundStages...),
			absent: []string{"gibbs.steady", "gibbs.build"},
			notes: map[string]string{
				"core.infer>shard.build": "shards=2 boundary_vars=",
				"core.infer>shard.run":   "epochs=20 reason=done shards=2 exchange_bytes=",
			},
		},
		{
			name: "upsert",
			record: func(t *testing.T) *obs.TraceRecord {
				return served(t, Options{WALPath: filepath.Join(t.TempDir(), "up.wal")}, "evidence", func(base string) {
					if up, code := postUpsert(t, base, "CountyEvidence", [][]string{
						{"3", storage.Geom(bong.Loc).String(), "true"},
					}); code != http.StatusOK || up.Pins != 1 {
						t.Fatalf("upsert = %+v (code %d)", up, code)
					}
				})
			},
			want: []string{"decode", "queue_wait", "validate", "wal_append>wal_fsync", "delta_ground", "pin_apply",
				"resample>conclique_sweep"},
			// The incremental sweep is conclique_sweep itself, not a second
			// span nested in it.
			absent: []string{"gibbs.steady", "core.infer", "core.ground"},
			notes:  map[string]string{"resample>conclique_sweep": "dirty=1 "},
		},
		{
			name: "upsert that re-grounds",
			record: func(t *testing.T) *obs.TraceRecord {
				return served(t, Options{}, "evidence", func(base string) {
					if up, code := postUpsert(t, base, "County", [][]string{
						{"9", storage.Geom(geom.Pt(-9.2, 6.1)).String(), "true"},
					}); code != http.StatusOK || !up.Structural {
						t.Fatalf("upsert = %+v (code %d), want structural", up, code)
					}
				})
			},
			want: append(under("reground", groundStages),
				"delta_ground", "resample>core.infer>gibbs.build", "resample>core.infer>gibbs.steady"),
			absent: []string{"conclique_sweep", "pin_apply"},
			notes:  map[string]string{"reground>core.ground": "vars=5 "},
		},
		{
			name: "lazy QueryLocal",
			record: func(t *testing.T) *obs.TraceRecord {
				return served(t, Options{LocalEpochs: 200}, "point", func(base string) {
					var pt queryResponse
					url := fmt.Sprintf("%s/v1/score/point?relation=HasEbola&x=%g&y=%g&budget=16", base, bong.Loc.X, bong.Loc.Y)
					if code := getJSON(t, url, &pt); code != http.StatusOK || len(pt.Atoms) != 1 || pt.Atoms[0].LocalVars == 0 {
						t.Fatalf("lazy point query: code %d, %+v", code, pt)
					}
				})
			},
			want:  []string{"acquire_read", "rtree_probe", "local_ground", "local_sample>gibbs.steady"},
			notes: map[string]string{"local_sample>gibbs.steady": "epochs=200 reason=done sampler=hogwild"},
		},
		{
			// The serve-layer half of syad's boot (cmd/syad's restart test
			// reads the daemon's own boot trace): ground, New over a WAL,
			// warm-up, each under the context the boot span rides.
			name: "boot",
			record: func(t *testing.T) *obs.TraceRecord {
				sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 400})
				return traced(t, "boot", func(ctx context.Context) error {
					if _, err := sys.GroundContext(ctx); err != nil {
						return err
					}
					srv, err := New(sys, Options{WALPath: filepath.Join(t.TempDir(), "boot.wal")})
					if err != nil {
						return err
					}
					t.Cleanup(func() { srv.Close() })
					return srv.Warmup(ctx, 0)
				})
			},
			want: append([]string{"serve.warmup>core.infer>gibbs.build", "serve.warmup>core.infer>gibbs.steady",
				"serve.warmup>core.infer>gibbs.marginals"}, groundStages...),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := c.record(t)
			got := stagePaths(t, rec)
			for _, path := range c.want {
				if _, ok := got[path]; !ok {
					t.Errorf("no %s stage in %v", path, rec.Spans)
				}
			}
			for path, sp := range got {
				for _, name := range c.absent {
					if sp.Name == name {
						t.Errorf("unexpected %s stage at %s", name, path)
					}
				}
			}
			for path, prefix := range c.notes {
				if note := got[path].Note; !strings.HasPrefix(note, prefix) {
					t.Errorf("%s note = %q, want prefix %q", path, note, prefix)
				}
			}
			if rec.Dropped != 0 {
				t.Errorf("dropped = %d on a small trace", rec.Dropped)
			}
		})
	}

	// A trace past the span cap stops growing and says so: a reading per
	// epoch is more events than one record holds.
	t.Run("past the cap", func(t *testing.T) {
		const perChain = 1200
		sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Instances: 1, ProgressEvery: 1})
		defer sys.Close()
		rec := traced(t, "batch", func(ctx context.Context) error {
			if _, err := sys.GroundContext(ctx); err != nil {
				return err
			}
			_, _, err := sys.InferContext(ctx, perChain)
			return err
		})
		stagePaths(t, rec)
		if rec.Dropped == 0 || len(rec.Spans)+rec.Dropped < perChain || len(rec.Spans) >= perChain {
			t.Errorf("%d spans kept, %d dropped for %d diag events: want a capped record that counts the rest",
				len(rec.Spans), rec.Dropped, perChain)
		}
	})
}
