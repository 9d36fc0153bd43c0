package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grounding"
	"repro/internal/stats"
	"repro/internal/storage"
)

// kind selects the measured region of a workload.
type kind int

const (
	kindBatch kind = iota // cold construction: load, Ground, Infer
	kindShard             // re-inference over two in-process shards
	kindRead              // closed-loop point/range/k-NN reads
	kindWrite             // closed-loop upserts beside open-loop reads
	kindLazy              // closed-loop budgeted point reads
)

// spec sizes one workload. The sizes are the smallest at which the layer the
// workload exists for dominates its wall time on this host (see README.md,
// "Discrimination check") while a rep stays near one second, so a run of
// --seconds 10 holds seven or more reps and the median survives a burst of
// host noise.
type spec struct {
	name   string
	kind   kind
	gwdb   bool // GWDB wells; otherwise the NYCCAS raster
	size   int  // wells, or raster side
	epochs int
	shards int
	// f1Floor fails a run whose quality falls below it: a tenth below the
	// lowest F1 seen over seeds 1–40, so no seed trips it and a sampler that
	// stopped converging does.
	f1Floor float64
	// digest pins the seed-1 inputs (rows, program text, configuration), so
	// an edit to internal/datagen or a program constant fails the run
	// instead of silently changing the workload.
	digest string
}

// workloads lists the six contract workloads in BENCHMARK.json order.
var workloads = []spec{
	{name: "gwdb_build", kind: kindBatch, gwdb: true, size: 3000, epochs: 200,
		f1Floor: 0.55, digest: "464f476c136b13a5"},
	{name: "nyccas_infer", kind: kindBatch, size: 64, epochs: 1000,
		f1Floor: 0.45, digest: "ffe94a6091c0ae8b"},
	{name: "shard_infer", kind: kindShard, gwdb: true, size: 2400, epochs: 1000, shards: 2,
		f1Floor: 0.55, digest: "c5858458d60ea28c"},
	{name: "serve_read", kind: kindRead, gwdb: true, size: 2400, epochs: 400,
		f1Floor: 0.55, digest: "0b5a2ac31180e25a"},
	{name: "serve_write", kind: kindWrite, gwdb: true, size: 2400, epochs: 400,
		f1Floor: 0.55, digest: "0b5a2ac31180e25a"},
	{name: "serve_lazy", kind: kindLazy, gwdb: true, size: 2400, epochs: 400,
		f1Floor: 0.55, digest: "0b5a2ac31180e25a"},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// toy shrinks a workload to smoke-test scale. The pins are dropped: they
// describe the contract sizes only.
func (s spec) toy() spec {
	s.size = 150
	if !s.gwdb {
		s.size = 10
	}
	s.epochs = 60
	s.f1Floor = 0
	s.digest = ""
	return s
}

// Serving constants shared by the three serve_* workloads.
const (
	lazyBudget  = 64   // ?budget= of every serve_lazy read
	rangeHalf   = 20.0 // range reads cover ±rangeHalf around a well
	knnK        = 8
	readerRate  = 50 // serve_write open-loop reads per second: one in flight at a time, and a read behind an upsert on one processor takes 10 to 25 ms
	readClients = 2  // serve_read closed-loop clients
)

// atom is one ground atom of the workload's variable relation, with what the
// benchmark needs to query it, upsert it and score it.
type atom struct {
	key      string // grounding.AtomKey, as the server reports it
	vals     []storage.Value
	loc      geom.Point
	label    bool // planted truth
	evidence bool // label revealed in the base load
	// cells is the atom's evidence row as text, the payload of an upsert.
	cells []string
	// keyJSON is the key as it appears in a response body.
	keyJSON []byte
}

type table struct {
	relation string
	rows     []storage.Row
}

// dataset is everything one seed generates for a workload. The program under
// test sees nothing else: its own Config.Seed stays 1.
type dataset struct {
	program  string
	relation string // the variable relation reads query
	evidence string // the relation upserts append to
	tables   []table
	atoms    []atom
	cfg      core.Config
	extent   float64
}

// localityFor picks the deepest pyramid level whose cells still cover the
// spatial interaction radius (the rule internal/bench applies to the same
// datasets).
func localityFor(extent, radius float64, levels int) int {
	l := 2
	for l+1 <= levels-1 && extent/float64(int(1)<<(l+1)) >= radius {
		l++
	}
	return l
}

const pyramidLevels = 6

// generate builds the workload's inputs from the seed.
func (s spec) generate(seed int64) *dataset {
	cfg := core.Config{
		Engine:           core.EngineSya,
		Metric:           geom.Euclidean,
		SpatialScale:     0.5,
		MaxNeighbors:     40,
		PyramidLevels:    pyramidLevels,
		Instances:        2,
		Epochs:           s.epochs,
		Seed:             1,
		SkipFactorTables: true,
		Shards:           s.shards,
	}
	if !s.gwdb {
		extent := float64(s.size) * 30.0 / 22.0
		cell := extent / float64(s.size)
		data := datagen.Raster(datagen.RasterConfig{Side: s.size, Seed: seed, Extent: extent})
		cfg.Bandwidth = 2 * cell
		cfg.SupportRadius = 4 * cell
		cfg.LocalityLevel = localityFor(extent, cfg.SupportRadius, pyramidLevels)
		d := &dataset{program: datagen.NYCCASProgram, relation: "Polluted", evidence: "CellEvidence", cfg: cfg, extent: extent}
		cells, evidence := data.Rows()
		d.tables = []table{{"Cell", cells}, {"CellEvidence", evidence}}
		for _, c := range data.Cells {
			d.addAtom(c.ID, c.Loc, c.Polluted, c.IsEvidence)
		}
		return d
	}
	// The extent, the settlement clusters and the bumps of the latent safety
	// field all grow with the well count at constant density, as the real
	// GWDB covers more of Texas rather than denser wells; the bump width
	// stays at the 600-well default. With the generator's fixed 12 clusters
	// and 15 bumps the join sizes of one seed differ from the next by a
	// quarter, which is input noise, not a property of the program.
	extent := 600 * math.Sqrt(float64(s.size)/600)
	scale := max(1, s.size/600)
	data := datagen.Wells(datagen.WellsConfig{
		N: s.size, Seed: seed, Extent: extent,
		Clusters: 12 * scale, Bumps: 15 * scale,
		CorrelationLength: math.Min(100, extent/6),
	})
	cfg.Bandwidth = 30
	cfg.SupportRadius = 75
	cfg.LocalityLevel = localityFor(extent, cfg.SupportRadius, pyramidLevels)
	d := &dataset{program: datagen.GWDBProgram, relation: "IsSafe", evidence: "WellEvidence", cfg: cfg, extent: extent}
	wells, evidence := data.Rows()
	d.tables = []table{{"Well", wells}, {"WellEvidence", evidence}}
	for _, w := range data.Wells {
		d.addAtom(w.ID, w.Loc, w.Safe, w.IsEvidence)
	}
	return d
}

func (d *dataset) addAtom(id int64, loc geom.Point, label, evidence bool) {
	vals := []storage.Value{storage.Int(id), storage.Geom(loc)}
	key := grounding.AtomKey(d.relation, vals)
	quoted, _ := json.Marshal(key) // a string always marshals
	d.atoms = append(d.atoms, atom{
		key:      key,
		keyJSON:  append([]byte(`"key":`), quoted...),
		vals:     vals,
		loc:      loc,
		label:    label,
		evidence: evidence,
		cells:    []string{fmt.Sprint(id), storage.Geom(loc).String(), fmt.Sprint(label)},
	})
}

// digest is the first 16 hex digits of a SHA-256 over the program text, the
// configuration and every generated row.
func (d *dataset) digest() string {
	h := sha256.New()
	c := d.cfg
	fmt.Fprintf(h, "%s\n%v %v %v %v %v %v %v %v %v %v %v\n", d.program,
		c.Engine, c.Bandwidth, c.SpatialScale, c.SupportRadius, c.MaxNeighbors,
		c.PyramidLevels, c.LocalityLevel, c.Instances, c.Epochs, c.Seed, c.Shards)
	for _, t := range d.tables {
		fmt.Fprintf(h, "%s %d\n", t.relation, len(t.rows))
		for _, row := range t.rows {
			for _, v := range row {
				fmt.Fprintf(h, "%s|", v.String())
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// newSystem creates a System with the dataset's program loaded.
func (d *dataset) newSystem(cfg core.Config) (*core.System, error) {
	sys := core.NewSystem(cfg)
	if err := sys.LoadProgram(d.program); err != nil {
		return nil, fmt.Errorf("LoadProgram: %w", err)
	}
	return sys, nil
}

// loadRows appends the base rows.
func (d *dataset) loadRows(sys *core.System) error {
	for _, t := range d.tables {
		if err := sys.LoadRows(t.relation, t.rows); err != nil {
			return fmt.Errorf("LoadRows %s: %w", t.relation, err)
		}
	}
	return nil
}

// f1 scores factual scores against the planted truth over the atoms whose
// label the system was never shown. score reports false for an atom the
// caller has no answer for; skip excludes atoms (upserted ones).
func (d *dataset) f1(score func(a *atom) (float64, bool)) float64 {
	var ex []stats.Example
	for i := range d.atoms {
		a := &d.atoms[i]
		if a.evidence {
			continue
		}
		p, ok := score(a)
		if !ok {
			continue
		}
		truth := 0.0
		if a.label {
			truth = 1
		}
		ex = append(ex, stats.Example{Score: p, Truth: stats.Point(truth), HasTruth: true})
	}
	return stats.Evaluate(ex, stats.DefaultOptions()).F1
}

// queryOrder returns a seeded permutation of the indexes of the atoms that
// pass keep.
func (d *dataset) queryOrder(seed int64, keep func(a *atom) bool) []int {
	var idx []int
	for i := range d.atoms {
		if keep(&d.atoms[i]) {
			idx = append(idx, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
