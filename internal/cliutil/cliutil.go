// Package cliutil holds the pipeline both the sya and syad commands run
// (paper Fig. 2: program → grounding → inference): Pipeline binds the shared
// command-line flags once and builds the grounded System, and LoadCSV
// ingests a -load file into its relation table. Both binaries therefore
// accept identical spellings for these flags, so a batch invocation can be
// lifted into a resident server (and back) without editing its arguments.
package cliutil

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/storage"
)

// Pipeline is what the shared flags configure: the program file, the CSV
// inputs and the System's configuration.
type Pipeline struct {
	Program string
	Loads   LoadFlag
	Config  core.Config
}

// Bind declares the shared pipeline flags on fs, each straight into the
// field it sets. -engine and -metric parse through the types' UnmarshalText,
// so a bad spelling is a usage error at parse time.
func (p *Pipeline) Bind(fs *flag.FlagSet) {
	fs.StringVar(&p.Program, "program", "", "DDlog program file (required)")
	fs.Var(&p.Loads, "load", "Relation=file.csv (repeatable)")
	fs.TextVar(&p.Config.Engine, "engine", core.EngineSya, "engine: sya | deepdive")
	fs.TextVar(&p.Config.Metric, "metric", geom.Euclidean, "distance metric: euclidean | miles | km")
	fs.IntVar(&p.Config.Epochs, "epochs", 1000, "inference epochs")
	fs.Float64Var(&p.Config.Bandwidth, "bandwidth", 50, "spatial weighing bandwidth")
	fs.Float64Var(&p.Config.SpatialScale, "scale", 1, "spatial weighing zero-distance scale")
	fs.Int64Var(&p.Config.Seed, "seed", 1, "sampler seed")
	fs.IntVar(&p.Config.Workers, "workers", 0, "grounding and sampler worker-pool width (0 = GOMAXPROCS, 1 = sequential; the ground graph is identical)")
}

// Validate reports what the parsed flags lack: a -program.
func (p *Pipeline) Validate() error {
	if p.Program == "" {
		return errors.New("-program is required")
	}
	return nil
}

// Build runs the pipeline up to a grounded System: it reads the program,
// creates the System from Config, loads the program and every -load CSV,
// and grounds under ctx. The System is closed on any error.
func (p *Pipeline) Build(ctx context.Context) (*core.System, error) {
	src, err := os.ReadFile(p.Program)
	if err != nil {
		return nil, err
	}
	s := core.NewSystem(p.Config)
	if err := p.load(ctx, s, string(src)); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (p *Pipeline) load(ctx context.Context, s *core.System, src string) error {
	if err := s.LoadProgram(src); err != nil {
		return err
	}
	for _, pair := range p.Loads.Pairs {
		if err := LoadCSV(s, pair[0], pair[1]); err != nil {
			return fmt.Errorf("loading %s from %s: %w", pair[0], pair[1], err)
		}
	}
	_, err := s.GroundContext(ctx)
	return err
}

// LoadFlag accumulates -load Relation=file.csv pairs.
type LoadFlag struct {
	Pairs [][2]string
}

func (l *LoadFlag) String() string { return fmt.Sprint(l.Pairs) }

// Set records one Relation=file.csv pair.
func (l *LoadFlag) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want Relation=file.csv, got %q", v)
	}
	l.Pairs = append(l.Pairs, [2]string{parts[0], parts[1]})
	return nil
}

// LoadCSV appends a CSV file's rows to a relation table, mapping columns by
// header name. Spatial columns parse WKT, booleans accept true/false/1/0,
// and empty cells load as NULL.
func LoadCSV(s *core.System, relation, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return err
	}
	if len(records) < 1 {
		return fmt.Errorf("no header row")
	}
	tbl, err := s.DB().Table(relation)
	if err != nil {
		return err
	}
	schema := tbl.Schema()
	header := records[0]
	colIdx := make([]int, len(header))
	for i, h := range header {
		ci := schema.ColIndex(strings.TrimSpace(h))
		if ci < 0 {
			return fmt.Errorf("column %q not in relation %s", h, relation)
		}
		colIdx[i] = ci
	}
	var rows []storage.Row
	for line, rec := range records[1:] {
		row := make(storage.Row, len(schema.Cols))
		for i := range row {
			row[i] = storage.Null
		}
		for i, cell := range rec {
			if i >= len(colIdx) {
				return fmt.Errorf("row %d has %d cells, header has %d", line+2, len(rec), len(header))
			}
			v, err := storage.ParseCell(schema.Cols[colIdx[i]], cell)
			if err != nil {
				return fmt.Errorf("row %d column %q: %w", line+2, header[i], err)
			}
			row[colIdx[i]] = v
		}
		rows = append(rows, row)
	}
	return tbl.AppendAll(rows)
}
