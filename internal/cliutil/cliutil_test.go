package cliutil

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
)

func TestLoadFlag(t *testing.T) {
	var l LoadFlag
	if err := l.Set("A=file.csv"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("broken"); err == nil {
		t.Error("malformed pair should fail")
	}
	if err := l.Set("=x.csv"); err == nil {
		t.Error("empty relation should fail")
	}
	if err := l.Set("A="); err == nil {
		t.Error("empty file should fail")
	}
	if len(l.Pairs) != 1 || l.String() == "" {
		t.Errorf("pairs = %v", l.Pairs)
	}
}

// TestSharedPipelineFlags: the nine shared arguments, each away from its
// default and in a spelling other than the canonical one where there is
// one, land in the Pipeline through Bind alone, and a bad -engine or -metric
// is a parse error. The sya and syad tests of the same name parse the same
// arguments through each command's parseArgs.
func TestSharedPipelineFlags(t *testing.T) {
	args := []string{"-program", "kb.ddlog", "-load", "County=c.csv", "-engine", "DeepDive",
		"-metric", "haversine_km", "-epochs", "50", "-bandwidth", "60", "-scale", "0.5",
		"-seed", "7", "-workers", "1"}
	want := Pipeline{
		Program: "kb.ddlog", Loads: LoadFlag{Pairs: [][2]string{{"County", "c.csv"}}},
		Config: core.Config{
			Engine: core.EngineDeepDive, Metric: geom.HaversineKm,
			Epochs: 50, Bandwidth: 60, SpatialScale: 0.5, Seed: 7, Workers: 1,
		},
	}
	parse := func(args []string) (Pipeline, error) {
		var p Pipeline
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p.Bind(fs)
		return p, fs.Parse(args)
	}
	got, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Bind parsed\n%+v, want\n%+v", got, want)
	}
	for _, flag := range []string{"-engine", "-metric"} {
		if _, err := parse([]string{"-program", "kb.ddlog", flag, "bogus"}); err == nil {
			t.Errorf("bad %s should fail to parse", flag)
		}
	}
	if err := (&Pipeline{}).Validate(); err == nil {
		t.Error("a Pipeline without a program should not validate")
	}
}

// TestBuild: Build grounds a loadable pipeline and reports every
// failing stage — reading the program, compiling it, loading a CSV.
func TestBuild(t *testing.T) {
	dir := t.TempDir()
	program := filepath.Join(dir, "kb.ddlog")
	if err := os.WriteFile(program, []byte(datagen.EbolaProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	county := writeCSV(t, "county.csv", "id,location,hasLowSanitation\n1,POINT (-10.80 6.32),true\n")
	p := Pipeline{Program: program, Loads: LoadFlag{Pairs: [][2]string{{"County", county}}}}
	s, err := p.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Grounding() == nil || s.Grounding().Stats.Vars != 1 {
		t.Errorf("Build did not ground the loaded county")
	}
	broken := filepath.Join(dir, "broken.ddlog")
	if err := os.WriteFile(broken, []byte("not ddlog"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Pipeline{
		"missing program":  {Program: filepath.Join(dir, "missing.ddlog")},
		"broken program":   {Program: broken},
		"missing csv":      {Program: program, Loads: LoadFlag{Pairs: [][2]string{{"County", "missing.csv"}}}},
		"unknown relation": {Program: program, Loads: LoadFlag{Pairs: [][2]string{{"Nope", county}}}},
	} {
		if _, err := bad.Build(context.Background()); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

// newEbolaSystem builds an ungrounded system with the Ebola program loaded.
func newEbolaSystem(t *testing.T) *core.System {
	t.Helper()
	s := core.NewSystem(core.Config{Metric: geom.HaversineMiles, Bandwidth: 60})
	t.Cleanup(func() { s.Close() })
	if err := s.LoadProgram(datagen.EbolaProgram); err != nil {
		t.Fatal(err)
	}
	return s
}

func writeCSV(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCSV(t *testing.T) {
	s := newEbolaSystem(t)
	// Columns in header order differing from the schema, with a NULL cell.
	path := writeCSV(t, "county.csv",
		"hasLowSanitation,id,location\n"+
			"true,1,POINT (-10.80 6.32)\n"+
			",2,POINT (-10.45 6.55)\n")
	if err := LoadCSV(s, "County", path); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.DB().Table("County")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 2 {
		t.Errorf("loaded %d rows, want 2", got)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	s := newEbolaSystem(t)
	cases := map[string]string{
		"unknown column": "id,nope\n1,2\n",
		"bad bool":       "id,location,hasLowSanitation\n1,POINT (0 0),maybe\n",
		"bad WKT":        "id,location,hasLowSanitation\n1,CIRCLE (0),true\n",
		"ragged row":     "id,location\n1,POINT (0 0),true,extra\n",
	}
	for name, body := range cases {
		path := writeCSV(t, "bad.csv", body)
		if err := LoadCSV(s, "County", path); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	if err := LoadCSV(s, "County", filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
	if err := LoadCSV(s, "Nope", writeCSV(t, "c.csv", "id\n1\n")); err == nil {
		t.Error("unknown relation should fail")
	}
}
