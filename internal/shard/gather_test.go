package shard

import (
	"context"
	"regexp"
	"testing"

	"repro/internal/gibbs/testutil"
)

// forgingTransport rewrites the counts frames a shard sends.
type forgingTransport struct {
	Transport
	forge func(Message) Message
}

func (f forgingTransport) Send(ctx context.Context, to int, m Message) error {
	if m.Kind == MsgCounts {
		m = f.forge(m)
	}
	return f.Transport.Send(ctx, to, m)
}

// ownedBy returns the first variable plan assigns to shard id.
func ownedBy(t *testing.T, plan *Plan, id int) int64 {
	t.Helper()
	for v, owner := range plan.Owner {
		if owner == id {
			return int64(v)
		}
	}
	t.Fatalf("shard %d owns nothing", id)
	return 0
}

// TestGatherRejectsForgedCounts: the coordinator merges a counts frame only
// if it comes from a shard of the group and every row is a variable that
// shard owns, at that variable's domain size. Each forgery below used to be
// believed: an out-of-range sender satisfied the quorum with no data, any
// shard could overwrite another's rows, and an over-long row panicked later
// in Marginals.
func TestGatherRejectsForgedCounts(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Vars: 24, Domain: 2, Spatial: true, Seed: 45})
	cases := []struct {
		name  string
		forge func(t *testing.T, plan *Plan, m Message) Message
		want  string
	}{
		{"sender outside the group", func(t *testing.T, plan *Plan, m Message) Message {
			m.From = 7
			return m
		}, `counts frame from shard 7`},
		{"row for another shard's variable", func(t *testing.T, plan *Plan, m Message) Message {
			m.Payload = encodeCounts([]int64{ownedBy(t, plan, 0)}, [][]int64{{3, 5}})
			return m
		}, `shard 1 counts: row for variable \d+, which the shard does not own`},
		{"row longer than the domain", func(t *testing.T, plan *Plan, m Message) Message {
			m.Payload = encodeCounts([]int64{ownedBy(t, plan, 1)}, [][]int64{{3, 5, 8}})
			return m
		}, `shard 1 counts: row for variable \d+ has 3 values, domain is 2`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer testutil.GoroutineLeakCheck(t)()
			var plan *Plan
			trs := NewLocalTransports(2)
			trs[1] = forgingTransport{trs[1], func(m Message) Message { return c.forge(t, plan, m) }}
			opts := testOptions(2)
			opts.Transports = trs
			gr, err := New(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer gr.Close()
			plan = gr.Plan()
			_, err = gr.Run(context.Background(), 40)
			if err == nil || !regexp.MustCompile(c.want).MatchString(err.Error()) {
				t.Errorf("Run = %v, want an error matching %q", err, c.want)
			}
			gr.Marginals() // must not index past a domain
		})
	}
}
