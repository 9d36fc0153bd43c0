package core

import (
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/gibbs/testutil"
)

// TestShardCountInvarianceOnWorkloads is the end-to-end face of the
// sharded-inference contract: the same grounded workload inferred with 1,
// 2 and 4 shards produces the same marginals within Monte-Carlo tolerance.
// The shard counts run distinct chains (per-shard seeds, halo exchange), so
// this is a statistical equivalence check against the single-process
// reference, on the gwdb and nyccas datagen workloads.
func TestShardCountInvarianceOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep")
	}
	for _, w := range localWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			marg := map[int]map[string][]float64{}
			for _, shards := range []int{1, 2, 4} {
				s := w.build(t)
				s.cfg.Shards = shards
				if _, err := s.Ground(); err != nil {
					t.Fatal(err)
				}
				scores, err := s.Infer()
				if err != nil {
					s.Close()
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if shards > 1 && s.shardGroup == nil {
					s.Close()
					t.Fatalf("shards=%d: sharded path not taken", shards)
				}
				m := map[string][]float64{}
				scores.Each(w.queryRel, func(key string, _ factorgraph.VarID, marginal []float64) bool {
					m[key] = marginal
					return true
				})
				s.Close()
				marg[shards] = m
			}
			if len(marg[1]) == 0 {
				t.Fatal("test premise broken: no query atoms")
			}
			for _, shards := range []int{2, 4} {
				d, key, err := testutil.KeyedMaxTV(marg[shards], marg[1])
				if err != nil {
					t.Fatal(err)
				}
				if d > localTol {
					t.Errorf("shards=%d vs single-process: max TV %.4f > %.2f at %s", shards, d, localTol, key)
				}
			}
		})
	}
}

// TestShardedConfigValidation pins the wiring preconditions: sharding is a
// Sya-engine feature, and TCP addresses must match the shard count.
func TestShardedConfigValidation(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineDeepDive, Shards: 2, Seed: 7})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(); err == nil {
		t.Error("sharded DeepDive inference must fail")
	}

	s2 := newEbolaSystem(t, Config{Engine: EngineSya, Shards: 2, ShardAddrs: []string{"127.0.0.1:0"}, Seed: 7})
	defer s2.Close()
	if _, err := s2.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Infer(); err == nil {
		t.Error("mismatched ShardAddrs length must fail")
	}
}
