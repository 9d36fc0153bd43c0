package shard

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
	"repro/internal/obs"
)

// tvTol mirrors the gibbs harness tolerance: with the epoch budgets below,
// sampling noise keeps the worst per-variable TV distance well under it.
const tvTol = 0.04

func mustGraph(t testing.TB, spec testutil.Spec) *factorgraph.Graph {
	t.Helper()
	g, err := testutil.RandomGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testOptions(shards int) Options {
	return Options{
		Shards:    shards,
		Levels:    4,
		Instances: 2,
		Workers:   1,
		Seed:      17,
	}
}

// TestShardedMatchesExactOnShapes is the tentpole's statistical harness:
// sharded inference with halo exchange against exact marginals on the four
// canonical graph shapes, for 1, 2 and 4 shards. Passing for every shard
// count is simultaneously the shard-count invariance check — all counts
// land within tolerance of the same exact distribution.
func TestShardedMatchesExactOnShapes(t *testing.T) {
	for _, shape := range testutil.Shapes(910) {
		shape := shape
		t.Run(shape.Name, func(t *testing.T) {
			g := mustGraph(t, shape.Spec)
			exact, err := testutil.Exact(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4} {
				gr, err := New(g, testOptions(shards))
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if _, err := gr.Run(context.Background(), 25000); err != nil {
					gr.Close()
					t.Fatalf("shards=%d: %v", shards, err)
				}
				m := gr.Marginals()
				gr.Close()
				if d := testutil.MaxTV(m, exact); d > tvTol {
					t.Errorf("shards=%d: max TV distance %.4f > %.2f", shards, d, tvTol)
				}
			}
		})
	}
}

// TestPartitionDeterministicAndComplete pins the plan contract: a pure
// function of (graph, options) assigning every query variable to exactly
// one shard and every evidence variable to none.
func TestPartitionDeterministicAndComplete(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Vars: 40, Domain: 2, Spatial: true, Seed: 31})
	opts := testOptions(3)
	a, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two partitions of the same graph differ")
	}
	seen := make([]int, opts.Shards)
	for i := 0; i < g.NumVars(); i++ {
		meta := g.Var(factorgraph.VarID(i))
		owner := a.Owner[i]
		if meta.Evidence != factorgraph.NoEvidence {
			if owner != -1 {
				t.Errorf("evidence var %d owned by shard %d", i, owner)
			}
			continue
		}
		if owner < 0 || owner >= opts.Shards {
			t.Errorf("query var %d owned by %d, want 0..%d", i, owner, opts.Shards-1)
			continue
		}
		seen[owner]++
	}
	if a.Subtrees < 2 {
		t.Fatalf("test premise broken: %d subtrees", a.Subtrees)
	}
}

// TestShardedExchangeMetrics checks the per-shard observability series and
// the aggregate ExchangeStats: a 2-shard run over a connected spatial graph
// must move halo bytes and hold boundary variables on both sides.
func TestShardedExchangeMetrics(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Vars: 30, Domain: 2, Spatial: true, SpatialPairs: 60, Seed: 57})
	opts := testOptions(2)
	opts.Metrics = obs.NewRegistry()
	gr, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Close()
	if _, err := gr.Run(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	st := gr.ExchangeStats()
	if st.BoundaryVars == 0 {
		t.Fatal("test premise broken: no boundary variables — partition did not cut the graph")
	}
	if st.Bytes == 0 {
		t.Error("no halo bytes exchanged")
	}
	if st.Seconds <= 0 {
		t.Error("no exchange time recorded")
	}
	snap := opts.Metrics.Snapshot()
	var bytesTotal float64
	var boundary float64
	for key, v := range snap {
		if strings.HasPrefix(key, "sya_shard_exchange_bytes") {
			bytesTotal += v
		}
		if strings.HasPrefix(key, "sya_shard_boundary_vars") {
			boundary += v
		}
	}
	if int64(bytesTotal) != st.Bytes {
		t.Errorf("metric bytes %v != ExchangeStats.Bytes %d", bytesTotal, st.Bytes)
	}
	if int(boundary) != st.BoundaryVars {
		t.Errorf("metric boundary vars %v != ExchangeStats.BoundaryVars %d", boundary, st.BoundaryVars)
	}
}

// TestShardedRunCancel: cancelling the run context stops every shard
// without an error, and partial marginals stay readable.
func TestShardedRunCancel(t *testing.T) {
	defer testutil.GoroutineLeakCheck(t)()
	g := mustGraph(t, testutil.Spec{Vars: 24, Domain: 2, Spatial: true, Seed: 83})
	gr, err := New(g, testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := gr.Run(ctx, 10000)
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if st.Reason != gibbs.ReasonCanceled {
		t.Errorf("Reason = %v, want ReasonCanceled", st.Reason)
	}
	m := gr.Marginals()
	if len(m) != g.NumVars() {
		t.Fatalf("marginals over %d vars, want %d", len(m), g.NumVars())
	}
}

// TestShardedGroupNoGoroutineLeak: construct, run, close — the pools and
// transports all unwind.
func TestShardedGroupNoGoroutineLeak(t *testing.T) {
	defer testutil.GoroutineLeakCheck(t)()
	g := mustGraph(t, testutil.Spec{Vars: 16, Domain: 2, Spatial: true, Seed: 97})
	gr, err := New(g, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gr.Run(context.Background(), 100); err != nil {
		t.Error(err)
	}
	gr.Close()
	gr.Close() // idempotent
}

// TestHaloCopiesAreLive pins the frozen/live rule at the shard boundary: a
// subgraph's halo copies are evidence that the exchange rewrites every epoch,
// so they must be marked live before the first epoch — never folded into a
// neighbour's bias — while true evidence stays frozen. One halo value flipped
// by hand must move the score of the neighbour this shard owns.
func TestHaloCopiesAreLive(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Domain: 2, Vars: 14, Spatial: true,
		LogicalFactors: 24, SpatialPairs: 30, EvidencePer1000: 250, Seed: 4242})
	gr, err := New(g, testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Close()
	halos := 0
	for _, n := range gr.nodes {
		sg := n.sub.Graph
		recv := map[factorgraph.VarID]bool{}
		for _, lids := range n.recvVars {
			for _, lid := range lids {
				recv[lid] = true
			}
		}
		if len(recv) != len(n.sub.Halo) {
			t.Errorf("shard %d: %d halo copies received, Sub reports %d", n.id, len(recv), len(n.sub.Halo))
		}
		for _, v := range n.sub.Boundary {
			lid := n.sub.LocalID[v]
			if sg.Var(lid).Evidence == factorgraph.NoEvidence {
				t.Errorf("shard %d: boundary variable %d is not evidence in the subgraph", n.id, v)
			}
			if recv[lid] != sg.Live(lid) || recv[lid] == sg.Frozen(lid) {
				t.Errorf("shard %d: variable %d halo=%v live=%v frozen=%v", n.id, v, recv[lid], sg.Live(lid), sg.Frozen(lid))
			}
		}
		halos += len(recv)
	}
	if halos == 0 {
		t.Fatal("test premise broken: the two shards share no boundary")
	}

	// Flip a halo copy by hand on the first shard that has one with a
	// spatial neighbour it owns.
	for _, n := range gr.nodes {
		sg := n.sub.Graph
		for _, h := range n.sub.Halo {
			for _, p := range sg.VarSpatialPairs(h) {
				a, b, w := sg.SpatialPair(p)
				u := a
				if u == h {
					u = b
				}
				if int(u) >= len(n.sub.Interior) || w == 0 {
					continue
				}
				assign := make(factorgraph.Assignment, sg.NumVars())
				for i := range assign {
					assign[i] = n.smp.ChainValue(0, factorgraph.VarID(i))
				}
				k := sg.Kernels()
				s0, s1 := k.BinaryConditionalScores(u, assign)
				if err := n.smp.SetChainValue(0, h, 1-assign[h]); err != nil {
					t.Fatalf("shard %d: refreshing halo copy %d: %v", n.id, h, err)
				}
				assign[h] = n.smp.ChainValue(0, h)
				if t0, t1 := k.BinaryConditionalScores(u, assign); t0 == s0 && t1 == s1 {
					t.Errorf("shard %d: flipping halo copy %d left its neighbour %d at (%v, %v)", n.id, h, u, s0, s1)
				}
				return
			}
		}
	}
	t.Fatal("test premise broken: no halo copy has an owned spatial neighbour")
}
