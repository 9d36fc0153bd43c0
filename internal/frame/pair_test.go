package frame_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// generation states of one file of a rotating pair.
const (
	ok      = "ok"
	missing = "missing"
	corrupt = "corrupt"
)

// outcome is what a reader of the pair ends up with.
const (
	fromPrimary = "primary"
	fromPrev    = "previous"
	notExist    = "not-exist" // error satisfying os.IsNotExist
	failed      = "error"     // any other error
)

// apply puts one file of a pair into state (it starts out ok).
func apply(t *testing.T, path, state string) {
	t.Helper()
	var err error
	switch state {
	case missing:
		err = os.Remove(path)
	case corrupt:
		err = testutil.CorruptFile(path)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestPairLoaderMatrix pins, for each of the nine primary × previous states,
// what LoadPair reports and what its caller makes of it: a resume reports
// the primary's failure whenever the previous generation does not load, so
// "no checkpoint" stays os.IsNotExist (the fresh-run signal).
func TestPairLoaderMatrix(t *testing.T) {
	cases := []struct {
		primary, prev string
		fallback      bool
		err           string // "", notExist or failed
		resume        string
	}{
		{ok, ok, false, "", fromPrimary},
		{ok, missing, false, "", fromPrimary},
		{ok, corrupt, false, "", fromPrimary},
		{missing, ok, true, "", fromPrev},
		{missing, missing, false, notExist, notExist},
		{missing, corrupt, false, notExist, notExist},
		{corrupt, ok, true, "", fromPrev},
		{corrupt, missing, false, failed, failed},
		{corrupt, corrupt, false, failed, failed},
	}
	kind := func(err error) string {
		switch {
		case err == nil:
			return ""
		case os.IsNotExist(err):
			return notExist
		}
		return failed
	}
	g, err := testutil.RandomGraph(testutil.Spec{Vars: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range cases {
		t.Run(c.primary+"-"+c.prev, func(t *testing.T) {
			dir := t.TempDir()

			// The loader itself, over a pair WriteFile published.
			path := filepath.Join(dir, "pair")
			for _, gen := range []string{"old", "new"} {
				if err := frame.WriteFile(path, []byte(gen+" generation")); err != nil {
					t.Fatal(err)
				}
			}
			apply(t, path, c.primary)
			apply(t, frame.PrevPath(path), c.prev)
			var loaded string
			fallback, err := frame.LoadPair(path, func(raw []byte) error {
				if s := string(raw); s != "old generation" && s != "new generation" {
					return errors.New("corrupt")
				}
				loaded = string(raw)
				return nil
			})
			if fallback != c.fallback || kind(err) != c.err {
				t.Errorf("LoadPair = (%v, %v), want (%v, %q)", fallback, err, c.fallback, c.err)
			}
			if want := map[bool]string{false: "new generation", true: "old generation"}[fallback]; err == nil && loaded != want {
				t.Errorf("LoadPair loaded %q, want %q", loaded, want)
			}

			// gibbs.ResumeFrom over a checkpoint pair: .prev at epoch 2, the
			// primary at epoch 5.
			ckpt := filepath.Join(dir, "run.ckpt")
			s := gibbs.NewSequential(g, 5)
			for _, epochs := range []int{2, 3} {
				s.RunEpochs(epochs)
				if err := (&gibbs.Checkpointer{Path: ckpt}).Save(s.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			apply(t, ckpt, c.primary)
			apply(t, frame.PrevPath(ckpt), c.prev)
			r := gibbs.NewSequential(g, 5)
			from, err := gibbs.ResumeFrom(r, ckpt)
			var got string
			switch {
			case err == nil && from == ckpt && r.TotalEpochs() == 5:
				got = fromPrimary
			case err == nil && from == frame.PrevPath(ckpt) && r.TotalEpochs() == 2:
				got = fromPrev
			case err == nil:
				t.Errorf("ResumeFrom = %q at epoch %d", from, r.TotalEpochs())
			default:
				got = kind(err)
			}
			if got != c.resume {
				t.Errorf("ResumeFrom outcome = %s (err %v), want %s", got, err, c.resume)
			}
		})
	}
}
