package serve

import (
	"container/list"
	"context"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/factorgraph"
	"repro/internal/index/rtree"
	"repro/internal/obs"
)

// This file is the serving face of query-driven lazy grounding: point
// queries with an effective variable budget (the ?budget= knob, defaulting
// to Options.LocalBudget) are answered by core.QueryLocal over a bounded
// subgraph around the matched atom instead of the full-graph marginal read.
// Answers are memoized in a small LRU keyed by (atom, generation, budget) —
// every upsert bumps the generation, invalidating all cached subgraphs at
// once.

// localKey identifies one cached lazy answer. The generation stamp makes
// invalidation free: entries from an older generation simply never match and
// age out of the LRU.
type localKey struct {
	vid    factorgraph.VarID
	gen    uint64
	budget int
}

// localCache is a mutex-guarded LRU of lazy query answers. Results are
// immutable once stored, so a hit hands out the shared pointer.
//
// Beyond the primary (root-atom) key, each cached subgraph registers a
// reverse index over its *interior* atoms: QueryLocal samples the whole
// bounded neighbourhood and reports every interior marginal, so a later
// query for an atom inside an already-cached subgraph (same generation and
// budget) is answered by slicing that marginal out of the cached result
// instead of regrounding an overlapping subgraph. The derived answer is the
// base subgraph's estimate of the atom — same error bound, zero grounding
// cost — and is memoized under its own primary key.
type localCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[localKey]*list.Element
	// rev maps interior-atom keys to the cached entry whose subgraph
	// sampled them (latest registration wins). Entries die with their base.
	rev map[localKey]*list.Element

	hits     *obs.Counter
	interior *obs.Counter
	misses   *obs.Counter
	mVars    *obs.Gauge
	mFacts   *obs.Gauge
	mGround  *obs.Histogram
}

type localEntry struct {
	key localKey
	res *core.LocalResult
	// revKeys are the reverse-index registrations this entry holds, removed
	// on eviction.
	revKeys []localKey
}

// localGroundBuckets cover frontier expansion + subgraph build, which should
// sit orders of magnitude below a full ground.
var localGroundBuckets = []float64{1e-5, 5e-5, 1e-4, 5e-4, .001, .005, .01, .05, .1, .5}

// localCacheSize bounds the server's LRU of lazy answers keyed by
// (atom, generation, budget).
const localCacheSize = 128

func newLocalCache(capacity int, m *obs.Registry) *localCache {
	return &localCache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[localKey]*list.Element, capacity),
		rev:      make(map[localKey]*list.Element, capacity),
		hits:     m.Counter("sya_local_cache_hits_total"),
		interior: m.Counter("sya_local_cache_interior_hits_total"),
		misses:   m.Counter("sya_local_cache_misses_total"),
		mVars:    m.Gauge("sya_local_subgraph_vars"),
		mFacts:   m.Gauge("sya_local_subgraph_factors"),
		mGround:  m.Histogram("sya_local_ground_seconds", localGroundBuckets),
	}
}

// get looks up k: primary entry first, then the interior reverse index.
// key is k's atom key, used to slice the marginal out of a base entry.
func (c *localCache) get(k localKey, key string) (*core.LocalResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*localEntry).res, true
	}
	if el, ok := c.rev[k]; ok {
		base := el.Value.(*localEntry).res
		if m, ok := base.Interior[key]; ok {
			c.ll.MoveToFront(el)
			c.interior.Inc()
			derived := *base // shallow copy: shares the immutable marginals
			derived.Key = key
			derived.Marginal = m
			derived.Score = core.ScoreOf(m)
			derived.GroundTime, derived.SampleTime = 0, 0
			// Memoize under the primary key; the base entry's reverse index
			// stays authoritative, so no rev registrations here.
			c.putLocked(k, &derived, nil)
			return &derived, true
		}
	}
	c.misses.Inc()
	return nil, false
}

func (c *localCache) put(k localKey, res *core.LocalResult, revKeys []localKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, res, revKeys)
}

func (c *localCache) putLocked(k localKey, res *core.LocalResult, revKeys []localKey) {
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*localEntry).res = res
		return
	}
	el := c.ll.PushFront(&localEntry{key: k, res: res, revKeys: revKeys})
	c.items[k] = el
	for _, rk := range revKeys {
		c.rev[rk] = el
	}
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		ent := back.Value.(*localEntry)
		delete(c.items, ent.key)
		for _, rk := range ent.revKeys {
			if c.rev[rk] == back {
				delete(c.rev, rk)
			}
		}
	}
}

// len reports the live entry count (tests).
func (c *localCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// localBudget resolves the effective point-query budget: the ?budget= knob
// when present (0 forces the full-graph path), else the server default.
func (s *Server) localBudget(q url.Values) (int, error) {
	raw := q.Get("budget")
	if raw == "" {
		return s.opts.LocalBudget, nil
	}
	return strconv.Atoi(raw)
}

// localScore answers one matched atom through the lazy path: LRU first, then
// a fresh QueryLocal (which nests local_ground / local_sample stages under
// the request span on ctx). Caller holds the read lock; v is the live view.
func (s *Server) localScore(ctx context.Context, v *view, vid factorgraph.VarID, budget int) (*core.LocalResult, error) {
	k := localKey{vid: vid, gen: v.gen, budget: budget}
	key := v.ground.Keys[vid]
	if res, ok := s.locals.get(k, key); ok {
		return res, nil
	}
	res, err := s.sys.QueryLocal(ctx, key, core.LocalBudget{
		MaxVars: budget,
		Epochs:  s.opts.LocalEpochs,
	})
	if err != nil {
		return nil, err
	}
	s.locals.mVars.Set(float64(res.Vars))
	s.locals.mFacts.Set(float64(res.Factors + res.SpatialPairs))
	s.locals.mGround.Observe(res.GroundTime.Seconds())
	// Register the subgraph's other interior atoms in the reverse index, so
	// overlapping point queries reuse this result instead of regrounding.
	revKeys := make([]localKey, 0, len(res.Interior))
	for key := range res.Interior {
		if vid2, ok := v.ground.VarID[key]; ok && vid2 != vid {
			revKeys = append(revKeys, localKey{vid: vid2, gen: v.gen, budget: budget})
		}
	}
	s.locals.put(k, res, revKeys)
	return res, nil
}

// servePointLocal is the lazy tail of handlePoint: score each probed atom
// over its bounded subgraph. Runs only on the live path — a degraded read
// cannot touch the (mutating) system, so stale point queries fall back to
// snapshot marginals.
func (s *Server) servePointLocal(w http.ResponseWriter, r *http.Request, rq *reqScope, v *view, items []rtree.Item, rel string, budget int) {
	resp := queryResponse{Relation: rel, Generation: v.gen, Budget: budget}
	resp.Atoms = make([]ScoredAtom, 0, len(items))
	for _, it := range items {
		vid := factorgraph.VarID(it.Data)
		res, err := s.localScore(r.Context(), v, vid, budget)
		if err != nil {
			s.fail(w, rq, http.StatusInternalServerError, "local query: %v", err)
			return
		}
		loc := v.ground.Graph.Var(vid).Loc
		resp.Atoms = append(resp.Atoms, ScoredAtom{
			Key:        v.ground.Keys[vid],
			Location:   [2]float64{loc.X, loc.Y},
			Score:      res.Score,
			Marginal:   res.Marginal,
			LocalVars:  res.Vars,
			ErrorBound: res.ErrorBound,
			Truncated:  res.Truncated,
		})
	}
	writeJSON(w, resp)
}
