package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// server is a resident KB behind an in-process HTTP listener on loopback,
// as syad would run it: WAL on, fsync on every append.
type server struct {
	*built
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	walDir string
	// inferDur is Warmup; bootDur is serve.New (WAL open, R-tree build).
	inferDur, bootDur time.Duration
	warmupSpan        int
}

// boot constructs, grounds, wraps and warms a server. Set-up time of the
// serving workloads is all of it: what an operator pays for a restart.
func (e *env) boot(parent int, reg *obs.Registry) (*server, error) {
	b, err := e.construct(parent, reg)
	if err != nil {
		return nil, err
	}
	return e.bootOn(parent, reg, b)
}

// bootOn is boot from a grounded System on: serve.New, Warmup, listener.
func (e *env) bootOn(parent int, reg *obs.Registry, b *built) (*server, error) {
	s := &server{built: b}
	var err error
	if s.walDir, err = os.MkdirTemp(e.tmp, "wal"); err != nil {
		b.sys.Close()
		return nil, err
	}
	_, s.bootDur, err = e.rec.stage("serve.boot", parent, func() error {
		var err error
		s.srv, err = serve.New(b.sys, serve.Options{
			Epochs:  e.spec.epochs,
			Metrics: reg,
			WALPath: filepath.Join(s.walDir, "evidence.wal"),
		})
		return err
	})
	if err != nil {
		b.sys.Close()
		os.RemoveAll(s.walDir)
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	s.warmupSpan, s.inferDur, err = e.rec.stage("serve.warmup", parent, func() error {
		return s.srv.Warmup(context.Background(), 0)
	})
	if err != nil {
		s.srv.Close()
		os.RemoveAll(s.walDir)
		return nil, fmt.Errorf("Warmup: %w", err)
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return s, nil
}

// stopHTTP closes the listener and the client's connections; the serve.Server
// stays usable in-process.
func (s *server) stopHTTP() {
	if s.ts != nil {
		s.client.CloseIdleConnections()
		s.ts.Close()
		s.ts = nil
	}
}

// close releases everything the server holds. keepWAL leaves the log on disk
// for the durability check, which removes it.
func (s *server) close(keepWAL bool) error {
	s.stopHTTP()
	err := s.srv.Close()
	if !keepWAL {
		os.RemoveAll(s.walDir)
	}
	return err
}

type readKind int

const (
	readPoint readKind = iota
	readRange
	readKNN
	readLazy
)

var readKindNames = [...]string{"point", "range", "knn", "lazy"}

func (s *server) readURL(k readKind, a *atom) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	base := s.ts.URL + "/v1/score/"
	rel := "?relation=" + s.data.relation
	switch k {
	case readRange:
		return base + "range" + rel + "&minx=" + f(a.loc.X-rangeHalf) + "&miny=" + f(a.loc.Y-rangeHalf) +
			"&maxx=" + f(a.loc.X+rangeHalf) + "&maxy=" + f(a.loc.Y+rangeHalf)
	case readKNN:
		return base + "knn" + rel + "&x=" + f(a.loc.X) + "&y=" + f(a.loc.Y) + "&k=" + strconv.Itoa(knnK)
	case readLazy:
		return base + "point" + rel + "&x=" + f(a.loc.X) + "&y=" + f(a.loc.Y) + "&budget=" + strconv.Itoa(lazyBudget)
	default:
		return base + "point" + rel + "&x=" + f(a.loc.X) + "&y=" + f(a.loc.Y)
	}
}

// get issues one read and returns the body and when it completed. A point,
// range or lazy read of an atom's own location must return that atom, and a
// k-NN read must return k atoms (the generator clamps wells to the extent, so
// more than k can share a corner); anything else, and any status but 200, is
// a failed operation.
func (s *server) get(k readKind, a *atom) (body []byte, done time.Time, err error) {
	resp, err := s.client.Get(s.readURL(k, a))
	if err != nil {
		return nil, time.Now(), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	switch {
	case err != nil:
		return nil, done, err
	case resp.StatusCode != http.StatusOK:
		return nil, done, fmt.Errorf("%s read of %s: status %d", readKindNames[k], a.key, resp.StatusCode)
	case k == readKNN && bytes.Count(body, []byte(`"key":`)) != min(knnK, len(s.data.atoms)):
		return nil, done, fmt.Errorf("knn read at %s does not return %d atoms", a.key, knnK)
	case k != readKNN && !bytes.Contains(body, a.keyJSON):
		return nil, done, fmt.Errorf("%s read of %s does not return it", readKindNames[k], a.key)
	}
	return body, done, nil
}

// queryResponse is the part of a score response the benchmark checks.
type queryResponse struct {
	Stale bool `json:"stale"`
	Atoms []struct {
		Key   string  `json:"key"`
		Score float64 `json:"score"`
	} `json:"atoms"`
}

// score finds one atom's score in a response. Wells the generator clamped to
// a corner of the extent share a location, so a point read may return
// several atoms.
func (qr *queryResponse) score(key string) (float64, bool) {
	for _, a := range qr.Atoms {
		if a.Key == key {
			return a.Score, true
		}
	}
	return 0, false
}

// allScores reads every atom's score in one range query over the extent.
func (s *server) allScores() (map[string]float64, error) {
	url := s.ts.URL + "/v1/score/range?relation=" + s.data.relation +
		fmt.Sprintf("&minx=%g&miny=%g&maxx=%g&maxy=%g", -1.0, -1.0, s.data.extent+1, s.data.extent+1)
	resp, err := s.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("full-extent range read: status %d", resp.StatusCode)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, err
	}
	scores := make(map[string]float64, len(qr.Atoms))
	for _, a := range qr.Atoms {
		scores[a.Key] = a.Score
	}
	return scores, nil
}

// tally is what one client goroutine observed; clients merge theirs under
// the region's lock when they finish.
type tally struct {
	ops       []float64                     // primary-operation latencies, ms
	opAt      []float64                     // when each completed, seconds into the region
	reads     [len(readKindNames)][]float64 // read latencies by kind, ms
	late      []float64                     // open-loop send lateness, ms
	stale     int                           // reads answered from the pre-upsert snapshot
	attempted int
	failures  []string
}

// op records one primary operation that ran from t0 to done in a region
// that began at start, and returns its latency in ms.
func (t *tally) op(start, t0, done time.Time) float64 {
	lat := ms(done.Sub(t0))
	t.ops = append(t.ops, lat)
	t.opAt = append(t.opAt, done.Sub(start).Seconds())
	return lat
}

func (t *tally) failf(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// region is the measured region of a serving workload.
type region struct {
	tally
	mu      sync.Mutex
	elapsed time.Duration
	f1      float64
	acked   []*atom // upserts the server acknowledged
	scores  map[string]float64
}

func (r *region) merge(t *tally) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, t.ops...)
	r.opAt = append(r.opAt, t.opAt...)
	for k := range t.reads {
		r.reads[k] = append(r.reads[k], t.reads[k]...)
	}
	r.late = append(r.late, t.late...)
	r.stale += t.stale
	r.attempted += t.attempted
	r.failures = append(r.failures, t.failures...)
}

// pooledReads is every read latency of the region, all kinds together.
func (r *region) pooledReads() []float64 {
	var all []float64
	for _, xs := range r.reads {
		all = append(all, xs...)
	}
	return all
}

// measure runs the workload's traffic against the server for the given time.
// parent is the span client operations are recorded under when tracing.
func (e *env) measure(s *server, seconds float64, parent int) (*region, error) {
	r := &region{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	switch e.spec.kind {
	case kindRead:
		e.readRegion(s, r, start, deadline, parent)
	case kindWrite:
		e.writeRegion(s, r, start, deadline, parent)
	case kindLazy:
		e.lazyRegion(s, r, start, deadline, parent)
	}
	r.elapsed = time.Since(start)
	if r.scores == nil {
		var err error
		if r.scores, err = s.allScores(); err != nil {
			return nil, err
		}
	}
	upserted := make(map[*atom]bool, len(r.acked))
	for _, a := range r.acked {
		upserted[a] = true
	}
	r.f1 = s.data.f1(func(a *atom) (float64, bool) {
		p, ok := r.scores[a.key]
		return p, ok && !upserted[a]
	})
	return r, nil
}

// readRegion is serve_read: closed-loop clients cycling point, range and
// k-NN reads over a seeded permutation of all wells.
func (e *env) readRegion(s *server, r *region, start, deadline time.Time, parent int) {
	order := s.data.queryOrder(e.seed, func(*atom) bool { return true })
	var wg sync.WaitGroup
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var t tally
			defer r.merge(&t)
			for i := 0; time.Now().Before(deadline); i++ {
				a := &s.data.atoms[order[(c+readClients*i)%len(order)]]
				k := readKind(i % 3)
				t0 := time.Now()
				_, done, err := s.get(k, a)
				t.attempted++
				if err != nil {
					t.failf("%v", err)
					continue
				}
				e.rec.op("bench.op.read_"+readKindNames[k], parent, t0, done)
				t.reads[k] = append(t.reads[k], t.op(start, t0, done))
			}
		}(c)
	}
	wg.Wait()
}

// lazyRegion is serve_lazy: one closed-loop client issuing budgeted point
// reads over a seeded permutation of the wells whose label is unknown, pass
// after pass. The scores it is served are the ones F1 is computed on.
func (e *env) lazyRegion(s *server, r *region, start, deadline time.Time, parent int) {
	order := s.data.queryOrder(e.seed, func(a *atom) bool { return !a.evidence })
	r.scores = make(map[string]float64, len(order))
	for i := 0; time.Now().Before(deadline); i++ {
		a := &s.data.atoms[order[i%len(order)]]
		t0 := time.Now()
		body, done, err := s.get(readLazy, a)
		r.attempted++
		if err != nil {
			r.failf("%v", err)
			continue
		}
		e.rec.op("bench.op.read_lazy", parent, t0, done)
		r.reads[readLazy] = append(r.reads[readLazy], r.op(start, t0, done))
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			r.failf("lazy read of %s: %v", a.key, err)
			continue
		}
		r.scores[a.key], _ = qr.score(a.key) // get found the key in the body
	}
}

// writeRegion is serve_write: one closed-loop writer upserting the label of
// one unlabeled well at a time, each followed by a read that must find the
// atom pinned, beside an open-loop reader whose reads are timed from when
// they were due.
func (e *env) writeRegion(s *server, r *region, start, deadline time.Time, parent int) {
	all := s.data.queryOrder(e.seed+1, func(*atom) bool { return true })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var t tally
		defer r.merge(&t)
		interval := time.Second / readerRate
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			t.late = append(t.late, ms(time.Since(due)))
			a := &s.data.atoms[all[i%len(all)]]
			body, done, err := s.get(readPoint, a)
			t.attempted++
			if err != nil {
				t.failf("%v", err)
				continue
			}
			e.rec.op("bench.op.read_point", parent, due, done)
			t.reads[readPoint] = append(t.reads[readPoint], ms(done.Sub(due)))
			if bytes.Contains(body, []byte(`"stale":true`)) {
				t.stale++
			}
		}
	}()

	var t tally
	for _, i := range s.data.queryOrder(e.seed, func(a *atom) bool { return !a.evidence }) {
		if !time.Now().Before(deadline) {
			break
		}
		a := &s.data.atoms[i]
		t0 := time.Now()
		err := s.upsert(a)
		done := time.Now()
		t.attempted++
		if err != nil {
			t.failf("%v", err)
			continue
		}
		e.rec.op("bench.op.upsert", parent, t0, done)
		t.op(start, t0, done)
		r.acked = append(r.acked, a)
		t.attempted++
		if err := s.checkPinned(a); err != nil {
			t.failf("%v", err)
		}
	}
	wg.Wait()
	r.merge(&t)
}

// upsert POSTs one evidence row; only a 200 is an acknowledgement.
func (s *server) upsert(a *atom) error {
	body, _ := json.Marshal(map[string]any{"relation": s.data.evidence, "rows": [][]string{a.cells}}) // strings always marshal
	resp, err := s.client.Post(s.ts.URL+"/v1/evidence", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upsert of %s: status %d", a.key, resp.StatusCode)
	}
	return nil
}

// checkPinned reads an upserted atom back: the answer must be fresh and its
// score exactly the label.
func (s *server) checkPinned(a *atom) error {
	body, _, err := s.get(readPoint, a)
	if err != nil {
		return err
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return err
	}
	want := 0.0
	if a.label {
		want = 1
	}
	if got, _ := qr.score(a.key); qr.Stale || got != want {
		return fmt.Errorf("read after upsert of %s: stale=%v score=%v, want a fresh answer pinned to %v", a.key, qr.Stale, got, want)
	}
	return nil
}

// checkDurable reopens a fresh System on the WAL the server left behind:
// every acknowledged upsert must come back as evidence. It removes the WAL.
func (e *env) checkDurable(s *server, acked []*atom) error {
	defer os.RemoveAll(s.walDir)
	phase("%s durability check over %d upserts", e.spec.name, len(acked))
	sys, err := s.data.newSystem(s.data.cfg)
	if err != nil {
		return err
	}
	if err := s.data.loadRows(sys); err != nil {
		return err
	}
	srv, err := serve.New(sys, serve.Options{Epochs: e.spec.epochs, WALPath: filepath.Join(s.walDir, "evidence.wal")})
	if err != nil {
		sys.Close()
		return fmt.Errorf("reopening on the WAL: %w", err)
	}
	defer srv.Close()
	graph := sys.Grounding().Graph
	for _, a := range acked {
		e.attempted++
		want := int32(0)
		if a.label {
			want = 1
		}
		vid, ok := sys.VarIDFor(s.data.relation, a.vals)
		if !ok || graph.Var(vid).Evidence != want {
			e.fail("acknowledged upsert of %s did not survive a restart", a.key)
		}
	}
	return nil
}

// runServe is the untraced pass of the three serving workloads: five times
// over, boot a server and run a fifth of the measured region against it.
// Set-ups and slices alternate for the reason runShard gives.
func (e *env) runServe() error {
	sm := &samples{window: serveWindow}
	for i := 0; i < setups; i++ {
		phase("%s set-up %d", e.spec.name, i)
		t0 := time.Now()
		s, err := e.boot(-1, nil)
		if err != nil {
			return err
		}
		sm.setup = append(sm.setup, time.Since(t0).Seconds())
		sm.ground = append(sm.ground, s.groundDur.Seconds())
		sm.infer = append(sm.infer, s.inferDur.Seconds())
		sm.build = append(sm.build, (s.groundDur + s.bootDur + s.inferDur).Seconds())

		phase("%s slice %d", e.spec.name, i)
		sm.slice()
		r, err := e.measure(s, e.seconds/setups, -1)
		if err != nil {
			s.close(false)
			return err
		}
		sm.sliceDone(r.ops, r.opAt, r.elapsed)
		sm.f1 = r.f1
		e.absorb(r)
		// The last slice's WAL stays for the durability check.
		durable := e.spec.kind == kindWrite && i == setups-1
		if err := s.close(durable); err != nil {
			return err
		}
		if durable {
			if err := e.checkDurable(s, r.acked); err != nil {
				return err
			}
		}
	}
	e.publish(sm)
	return nil
}

// absorb folds a region's operation counts, failures and quality check into
// the run.
func (e *env) absorb(r *region) {
	e.attempted += r.attempted
	for _, f := range r.failures {
		e.fail("%s", f)
	}
	e.checkF1(r.f1)
	if reads := r.pooledReads(); len(reads) > 0 && e.spec.kind == kindWrite {
		e.note("reads beside the writer: %d, p50 %.3f ms, p99 %.3f ms from due time, %d stale",
			len(reads), median(reads), percentile(reads, 0.99), r.stale)
	}
}
