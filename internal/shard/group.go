package shard

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/obs"
)

// Options configures a sharded inference group.
type Options struct {
	// Shards is N, the share-nothing partition count (≤ 1 → 1).
	Shards int
	// Levels and LocalityLevel parameterize each shard's pyramid exactly
	// like gibbs.SpatialOptions (the global bounding space is shared, so
	// cell geometry agrees across shards).
	Levels, LocalityLevel int
	// Instances is K, the chain count per shard. Instance k of every shard
	// exchanges with instance k of its neighbours, so the group runs K
	// coherent global chains. Default 2.
	Instances int
	// Workers is the sampler worker-pool width per shard (0 → GOMAXPROCS).
	Workers int
	// Seed drives all randomness. Shard 0 samples under Seed itself (a
	// one-shard group runs the identical program to a single spatial
	// sampler); other shards derive decorrelated seeds.
	Seed int64
	// BurnIn discards this many initial epochs per chain from the counters.
	BurnIn int
	// ExchangeTimeout bounds the wait at one epoch barrier (and the final
	// counts gather). A shard that hears nothing from a neighbour for this
	// long fails the run with an error naming the silent shard — the torn-
	// connection story. Default 30s.
	ExchangeTimeout time.Duration
	// Transports connects the shards (len = Shards); nil builds in-process
	// channel transports. The group closes them on Close either way.
	Transports []Transport
	// Metrics, when non-nil, receives per-shard exchange series
	// (sya_shard_exchange_bytes, sya_shard_exchange_seconds,
	// sya_shard_boundary_vars) on {shard="i"}-labeled views.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Instances <= 0 {
		o.Instances = 2
	}
	if o.ExchangeTimeout <= 0 {
		o.ExchangeTimeout = 30 * time.Second
	}
	return o
}

// shardSeed decorrelates shard i's PRNG lineage from the base seed
// (splitmix64 finalizer). Shard 0 keeps the base seed.
func shardSeed(seed int64, id int) int64 {
	if id == 0 {
		return seed
	}
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// exchangeBuckets bound one epoch barrier's wall time — in-process
// exchanges sit in the microseconds, localhost TCP in the tens of
// microseconds to milliseconds.
var exchangeBuckets = []float64{1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, .01, .05, .1, .5}

// node is one shard: its subgraph, sampler, transport endpoint and halo
// bookkeeping.
type node struct {
	id  int
	sub *factorgraph.Subgraph
	smp *gibbs.Spatial
	tr  Transport

	peers    []int                       // sorted neighbour shard ids
	sendVars map[int][]factorgraph.VarID // per peer: local ids of owned vars the peer holds as halo
	recvVars map[int][]factorgraph.VarID // per peer: local ids of halo vars owned by the peer
	lastSent map[int][]int32             // per peer: last values sent (var-major, K per var)
	sendBuf  map[int][]int32             // per peer: current-values scratch
	stash    []Message                   // early frames (epoch ahead of the barrier)
	haloVars int                         // halo variables held (all peers)

	exBytes   *obs.Counter
	exSeconds *obs.Histogram

	exchangeDur   time.Duration
	exchangeBytes int64
}

// Group runs sharded inference over one ground graph: N share-nothing
// nodes in lockstep epochs with halo exchange at every barrier, and a
// coordinator (shard 0's side of the group) that merges the shards'
// marginal counts into the full graph's marginal view after each run.
type Group struct {
	g     *factorgraph.Graph
	opts  Options
	plan  *Plan
	nodes []*node

	counts [][]float64 // per full-graph var, merged at the last gather
	totals []float64
}

// New partitions the graph and builds the N nodes (subgraph, compiled
// kernels, sampler, transport wiring). The group owns
// the transports from here on: Close closes them.
func New(g *factorgraph.Graph, opts Options) (*Group, error) {
	opts = opts.withDefaults()
	if opts.Transports != nil && len(opts.Transports) != opts.Shards {
		return nil, fmt.Errorf("shard: %d transports for %d shards", len(opts.Transports), opts.Shards)
	}
	plan, err := Partition(g, opts)
	if err != nil {
		return nil, err
	}
	trs := opts.Transports
	if trs == nil {
		trs = NewLocalTransports(opts.Shards)
	}
	gr := &Group{g: g, opts: opts, plan: plan}
	init := g.InitialAssignment()

	subs := make([]*factorgraph.Subgraph, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		if subs[i], err = buildSubgraph(g, plan, i, init); err != nil {
			return nil, fmt.Errorf("shard %d: building subgraph: %w", i, err)
		}
	}
	// Halo wiring: node j receives, from owner i, exactly the boundary
	// variables of j that plan assigns to i — and i sends the same list.
	// Both sides derive the lists from the shared plan, in ascending
	// global-id order, so sparse delta indices agree.
	recvGlobal := make([]map[int][]factorgraph.VarID, opts.Shards)
	for j, sub := range subs {
		recvGlobal[j] = map[int][]factorgraph.VarID{}
		for _, v := range sub.Boundary {
			if owner := plan.Owner[v]; owner >= 0 {
				recvGlobal[j][owner] = append(recvGlobal[j][owner], v)
			}
		}
	}
	for i := 0; i < opts.Shards; i++ {
		n := &node{
			id:       i,
			sub:      subs[i],
			tr:       trs[i],
			sendVars: map[int][]factorgraph.VarID{},
			recvVars: map[int][]factorgraph.VarID{},
			lastSent: map[int][]int32{},
			sendBuf:  map[int][]int32{},
		}
		for p, vars := range recvGlobal[i] {
			locals := make([]factorgraph.VarID, len(vars))
			for k, v := range vars {
				locals[k] = subs[i].LocalID[v]
			}
			n.recvVars[p] = locals
			n.haloVars += len(vars)
		}
		for p := 0; p < opts.Shards; p++ {
			vars := recvGlobal[p][i] // owned by i, halo at p
			if len(vars) == 0 {
				continue
			}
			locals := make([]factorgraph.VarID, len(vars))
			for k, v := range vars {
				locals[k] = subs[i].LocalID[v]
			}
			n.sendVars[p] = locals
		}
		for p := range n.sendVars {
			n.peers = append(n.peers, p)
		}
		sort.Ints(n.peers)

		n.smp, err = gibbs.NewSpatial(subs[i].Graph, gibbs.SpatialOptions{
			Levels:        opts.Levels,
			LocalityLevel: opts.LocalityLevel,
			Instances:     opts.Instances,
			Workers:       opts.Workers,
			Seed:          shardSeed(opts.Seed, i),
			BurnIn:        opts.BurnIn,
			Space:         plan.Space,
		})
		if err != nil {
			gr.Close()
			return nil, fmt.Errorf("shard %d: building sampler: %w", i, err)
		}
		if opts.Metrics != nil {
			reg := opts.Metrics.With("shard", strconv.Itoa(i))
			n.exBytes = reg.Counter("sya_shard_exchange_bytes")
			n.exSeconds = reg.Histogram("sya_shard_exchange_seconds", exchangeBuckets)
			reg.Gauge("sya_shard_boundary_vars").Set(float64(n.haloVars))
		}
		gr.nodes = append(gr.nodes, n)
	}
	return gr, nil
}

// Plan exposes the shard assignment (tests and diagnostics).
func (gr *Group) Plan() *Plan { return gr.plan }

// Epochs reports the per-instance epochs completed (shard 0's sampler —
// all shards advance in lockstep).
func (gr *Group) Epochs() int { return gr.nodes[0].smp.TotalEpochs() }

// Run advances every shard by approximately `total` raw epochs split
// across the K instances (matching (*gibbs.Spatial).RunTotal), with a halo
// exchange at every epoch barrier, then gathers the shards' marginal
// counts to the coordinator. Cancellation stops the shards at their next
// chunk boundary and is not an error — partial marginals remain readable.
// A transport failure, barrier timeout or worker panic aborts the run with
// an error naming the failing shard.
//
// A span on ctx gets one shard.run stage, recorded on the caller's goroutine
// only and noted from ExchangeStats once the nodes have joined: a span tree
// is single-goroutine, so the node goroutines run under a context with the
// span masked.
func (gr *Group) Run(ctx context.Context, total int) (gibbs.RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	per := (total + gr.opts.Instances - 1) / gr.opts.Instances
	if per < 1 {
		per = 1
	}
	span := obs.SpanFromContext(ctx).Child("shard.run")
	defer span.End()
	runCtx, cancel := context.WithCancel(obs.ContextWithSpan(ctx, obs.Span{}))
	defer cancel()
	stats := make([]gibbs.RunStats, len(gr.nodes))
	errs := make([]error, len(gr.nodes))
	var wg sync.WaitGroup
	for i, n := range gr.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			stats[i], errs[i] = n.run(runCtx, per, gr.opts.ExchangeTimeout)
			if errs[i] != nil {
				cancel() // unwind the peers waiting at the barrier
			}
		}(i, n)
	}
	wg.Wait()
	st := stats[0]
	for _, s := range stats[1:] {
		if s.Epochs < st.Epochs {
			st.Epochs = s.Epochs
		}
		if st.Reason == gibbs.ReasonDone && s.Reason != gibbs.ReasonDone {
			st.Reason = s.Reason
		}
	}
	if span.Enabled() {
		ex := gr.ExchangeStats() // cumulative since New
		span.Notef("epochs=%d reason=%s shards=%d exchange_bytes=%d exchange_s=%.6f",
			st.Epochs, st.Reason, len(gr.nodes), ex.Bytes, ex.Seconds)
	}
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	if err := gr.gather(); err != nil {
		return st, err
	}
	return st, nil
}

// run is one shard's share of a Run call: per epochs in lockstep with the
// epoch-barrier halo exchange.
func (n *node) run(ctx context.Context, per int, timeout time.Duration) (gibbs.RunStats, error) {
	st := gibbs.RunStats{Reason: gibbs.ReasonDone}
	for e := 0; e < per; e++ {
		rs, err := n.smp.Run(ctx, 1)
		st.Epochs += rs.Epochs
		st.Diag, st.DiagValid = rs.Diag, rs.DiagValid
		if err != nil {
			return st, fmt.Errorf("shard %d: %w", n.id, err)
		}
		if rs.Reason != gibbs.ReasonDone {
			st.Reason = rs.Reason
			return st, nil
		}
		if len(n.peers) == 0 {
			continue
		}
		if err := n.exchange(ctx, uint64(n.smp.TotalEpochs()), timeout); err != nil {
			if ctx.Err() != nil {
				st.Reason = reasonFromCtx(ctx)
				return st, nil
			}
			return st, fmt.Errorf("shard %d: halo exchange: %w", n.id, err)
		}
	}
	return st, nil
}

// reasonFromCtx maps a fired context to its stop reason.
func reasonFromCtx(ctx context.Context) gibbs.StopReason {
	if ctx.Err() == context.DeadlineExceeded {
		return gibbs.ReasonDeadline
	}
	return gibbs.ReasonCanceled
}

// exchange is one epoch barrier: send this epoch's boundary deltas to
// every neighbour, then block until every neighbour's frame for the same
// epoch arrived and is applied to the halo copies. Frames from the
// next epoch (a neighbour already past its barrier) are stashed; anything
// else is a protocol error.
func (n *node) exchange(ctx context.Context, epoch uint64, timeout time.Duration) error {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		n.exchangeDur += d
		if n.exSeconds != nil {
			n.exSeconds.Observe(d.Seconds())
		}
	}()
	k := n.smp.NumInstances()
	for _, p := range n.peers {
		vars := n.sendVars[p]
		cur := n.sendBuf[p]
		if cur == nil {
			cur = make([]int32, len(vars)*k)
			n.sendBuf[p] = cur
		}
		for i, lid := range vars {
			for j := 0; j < k; j++ {
				cur[i*k+j] = n.smp.ChainValue(j, lid)
			}
		}
		payload := encodeHalo(cur, n.lastSent[p], k)
		last := n.lastSent[p]
		if last == nil {
			last = make([]int32, len(cur))
			n.lastSent[p] = last
		}
		copy(last, cur)
		n.exchangeBytes += int64(len(payload))
		if n.exBytes != nil {
			n.exBytes.Add(uint64(len(payload)))
		}
		if err := n.tr.Send(ctx, p, Message{Kind: MsgHalo, From: n.id, Epoch: epoch, Payload: payload}); err != nil {
			return fmt.Errorf("epoch %d: %w", epoch, err)
		}
	}

	need := make(map[int]bool, len(n.peers))
	for _, p := range n.peers {
		need[p] = true
	}
	rest := n.stash[:0]
	for _, m := range n.stash {
		if m.Epoch == epoch && need[m.From] {
			if err := n.applyHalo(m, k); err != nil {
				return err
			}
			delete(need, m.From)
		} else {
			rest = append(rest, m)
		}
	}
	n.stash = rest

	wctx, cancelWait := context.WithTimeout(ctx, timeout)
	defer cancelWait()
	for len(need) > 0 {
		m, err := n.tr.Recv(wctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			missing := make([]int, 0, len(need))
			for p := range need {
				missing = append(missing, p)
			}
			sort.Ints(missing)
			return fmt.Errorf("epoch %d: waiting for shard(s) %v: %w", epoch, missing, err)
		}
		switch {
		case m.Kind != MsgHalo:
			// A stray counts frame from a previous run's gather; drop it.
		case m.Epoch == epoch && need[m.From]:
			if err := n.applyHalo(m, k); err != nil {
				return err
			}
			delete(need, m.From)
		case m.Epoch > epoch:
			n.stash = append(n.stash, m)
		default:
			return fmt.Errorf("epoch %d: unexpected halo frame from shard %d for epoch %d", epoch, m.From, m.Epoch)
		}
	}
	return nil
}

// applyHalo writes one neighbour's boundary delta into the halo copies of
// every instance.
func (n *node) applyHalo(m Message, k int) error {
	vars, ok := n.recvVars[m.From]
	if !ok {
		return fmt.Errorf("epoch %d: halo frame from non-neighbour shard %d", m.Epoch, m.From)
	}
	return decodeHalo(m.Payload, k, len(vars), func(idx int, vals []int32) error {
		lid := vars[idx]
		dom := n.sub.Graph.Var(lid).Domain
		for j, x := range vals {
			if x < 0 || x >= dom {
				return fmt.Errorf("epoch %d: halo frame from shard %d: value %d outside domain %d", m.Epoch, m.From, x, dom)
			}
			if err := n.smp.SetChainValue(j, lid, x); err != nil {
				return fmt.Errorf("epoch %d: halo frame from shard %d: %w", m.Epoch, m.From, err)
			}
		}
		return nil
	})
}

// encodeCountsFrame serializes this shard's interior marginal counts,
// summed across instances.
func (n *node) encodeCountsFrame() []byte {
	vids := make([]int64, len(n.sub.Interior))
	rows := make([][]int64, len(n.sub.Interior))
	for li, gv := range n.sub.Interior {
		vids[li] = int64(gv)
		rows[li] = make([]int64, n.sub.Graph.Var(factorgraph.VarID(li)).Domain)
		n.smp.AddCounts(factorgraph.VarID(li), rows[li])
	}
	return encodeCounts(vids, rows)
}

// gather merges every shard's marginal counts into the coordinator's
// full-graph view: shards 1..N-1 frame their counts over the transport to
// shard 0; shard 0's own counts take the same encode/decode path. A frame is
// merged only if it comes from a shard of the group, once, and every row is a
// variable that shard owns at that variable's domain size — anything else
// fails the run with an error naming the shard. Uses a fresh timeout context
// so a cancelled run can still read partial marginals.
func (gr *Group) gather() error {
	nv := gr.g.NumVars()
	counts := make([][]float64, nv)
	totals := make([]float64, nv)
	merge := func(from int, frame []byte) error {
		err := decodeCounts(frame, func(vid int, row []int64) error {
			if vid < 0 || vid >= nv || gr.plan.Owner[vid] != from {
				return fmt.Errorf("row for variable %d, which the shard does not own", vid)
			}
			if dom := int(gr.g.Var(factorgraph.VarID(vid)).Domain); len(row) != dom {
				return fmt.Errorf("row for variable %d has %d values, domain is %d", vid, len(row), dom)
			}
			m := make([]float64, len(row))
			var tot float64
			for i, c := range row {
				m[i] = float64(c)
				tot += float64(c)
			}
			counts[vid], totals[vid] = m, tot
			return nil
		})
		if err != nil {
			return fmt.Errorf("shard %d counts: %w", from, err)
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), gr.opts.ExchangeTimeout)
	defer cancel()
	epoch := uint64(gr.nodes[0].smp.TotalEpochs())
	for _, n := range gr.nodes {
		frame := n.encodeCountsFrame()
		if n.id == 0 {
			if err := merge(0, frame); err != nil {
				return err
			}
			continue
		}
		if err := n.tr.Send(ctx, 0, Message{Kind: MsgCounts, From: n.id, Epoch: epoch, Payload: frame}); err != nil {
			return fmt.Errorf("shard %d: sending counts: %w", n.id, err)
		}
	}
	got := map[int]bool{}
	for len(got) < len(gr.nodes)-1 {
		m, err := gr.nodes[0].tr.Recv(ctx)
		if err != nil {
			return fmt.Errorf("shard 0: gathering counts: %w", err)
		}
		if m.Kind != MsgCounts || got[m.From] {
			continue // stray halo frame from an unwound barrier
		}
		if m.From < 1 || m.From >= len(gr.nodes) {
			return fmt.Errorf("shard 0: counts frame from shard %d, outside the group's 1..%d", m.From, len(gr.nodes)-1)
		}
		if err := merge(m.From, m.Payload); err != nil {
			return err
		}
		got[m.From] = true
	}
	gr.counts, gr.totals = counts, totals
	return nil
}

// Marginals returns the full graph's marginal view from the last gather:
// evidence variables get a point mass, sampled variables their owning
// shard's normalized counts, unsampled variables a uniform — the same
// semantics as the single-process samplers.
func (gr *Group) Marginals() [][]float64 {
	nv := gr.g.NumVars()
	out := make([][]float64, nv)
	for i := 0; i < nv; i++ {
		vid := factorgraph.VarID(i)
		meta := gr.g.Var(vid)
		if meta.Evidence != factorgraph.NoEvidence || gr.counts == nil || gr.counts[i] == nil || gr.totals[i] <= 0 {
			out[i] = gr.g.PriorMarginal(vid)
			continue
		}
		m := make([]float64, meta.Domain)
		for x, c := range gr.counts[i] {
			m[x] = c / gr.totals[i]
		}
		out[i] = m
	}
	return out
}

// ExchangeStats aggregates the halo-exchange cost across shards.
type ExchangeStats struct {
	// BoundaryVars is the total halo variables held (each remote boundary
	// variable counted at every shard holding a copy).
	BoundaryVars int
	// Bytes is the cumulative halo payload bytes sent.
	Bytes int64
	// Seconds is the cumulative wall time spent inside epoch barriers,
	// summed over shards.
	Seconds float64
}

// ExchangeStats reports the cumulative exchange cost since New.
func (gr *Group) ExchangeStats() ExchangeStats {
	var st ExchangeStats
	for _, n := range gr.nodes {
		st.BoundaryVars += n.haloVars
		st.Bytes += n.exchangeBytes
		st.Seconds += n.exchangeDur.Seconds()
	}
	return st
}

// Close releases every shard's sampler pool and transport. Idempotent.
func (gr *Group) Close() {
	for _, n := range gr.nodes {
		n.smp.Close()
		n.tr.Close()
	}
	// Transports passed in via Options but never attached to a node (a
	// constructor failure path) are the caller's to close.
}
