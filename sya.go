// Package sya is the public API of this reproduction of "Sya: Enabling
// Spatial Awareness inside Probabilistic Knowledge Base Construction"
// (Sabek & Mokbel, ICDE 2020): a spatial probabilistic knowledge base
// construction system based on Markov Logic Networks.
//
// A System is configured with an engine (Sya or the DeepDive baseline),
// loads a spatial-DDlog program and input/evidence relations, grounds the
// program into a spatial factor graph, and infers the factual score
// (marginal probability) of every knowledge base relation:
//
//	s := sya.New(sya.Config{Engine: sya.EngineSya, Metric: sya.MetricMiles})
//	if err := s.LoadProgram(program); err != nil { ... }
//	if err := s.LoadRows("County", rows); err != nil { ... }
//	if _, err := s.Ground(); err != nil { ... }
//	scores, err := s.Infer()
//	p, _ := scores.TrueProb("HasEbola", sya.Vals(sya.Int(2), sya.Point(-10.45, 6.55)))
//
// The language is DDlog extended with spatial types (point, rectangle,
// polygon, linestring), spatial predicates (distance, within, overlaps,
// ...), the @spatial(w) annotation that generates distance-weighted spatial
// factors between ground atoms of a variable relation, and @weight(w) rule
// confidences. See the examples/ directory for complete programs.
package sya

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/grounding"
	"repro/internal/learn"
	"repro/internal/storage"
)

// Engine selects the pipeline mode.
type Engine = core.Engine

// Engine modes.
const (
	// EngineSya runs the paper's system: spatial factor graph plus Spatial
	// Gibbs Sampling over a conclique-partitioned pyramid index.
	EngineSya = core.EngineSya
	// EngineDeepDive runs the baseline: boolean spatial predicates, no
	// spatial factors, hogwild parallel Gibbs sampling.
	EngineDeepDive = core.EngineDeepDive
)

// Metric selects how rule distances and spatial-factor weights measure
// space.
type Metric = geom.Metric

// Distance metrics.
const (
	// MetricEuclidean is planar distance in coordinate units.
	MetricEuclidean = geom.Euclidean
	// MetricMiles is great-circle distance in statute miles over
	// (longitude, latitude) coordinates.
	MetricMiles = geom.HaversineMiles
	// MetricKm is great-circle distance in kilometres.
	MetricKm = geom.HaversineKm
)

// Config parameterizes a System; see core.Config for field semantics.
type Config = core.Config

// System is one knowledge-base construction pipeline.
type System = core.System

// Scores holds inferred factual scores.
type Scores = core.Scores

// UDF is a user-defined extraction function usable from DDlog function
// declarations.
type UDF = grounding.UDF

// LearnOptions configures weight learning (System.LearnWeights): the
// inference rules' tied weights are fit to the loaded evidence by
// contrastive divergence instead of being fixed by the program author.
type LearnOptions = learn.Options

// MAPOptions configures MAP inference (System.MAP): simulated annealing to
// the single most probable knowledge base.
type MAPOptions = gibbs.MAPOptions

// RunStats reports how a context-aware inference run ended: how many full
// epochs completed and why it stopped (System.InferContext).
type RunStats = gibbs.RunStats

// StopReason says why an inference run stopped.
type StopReason = gibbs.StopReason

// Stop reasons.
const (
	// ReasonDone: the run completed its epoch budget.
	ReasonDone = gibbs.ReasonDone
	// ReasonCanceled: the context was canceled; marginals are partial.
	ReasonCanceled = gibbs.ReasonCanceled
	// ReasonDeadline: the context deadline passed; marginals are partial.
	ReasonDeadline = gibbs.ReasonDeadline
	// ReasonPanic: a sampler worker panicked; the error is a
	// *WorkerPanicError.
	ReasonPanic = gibbs.ReasonPanic
)

// WorkerPanicError is the error a sampler run returns when a worker
// goroutine panicked: the panic value plus the worker's stack trace.
type WorkerPanicError = gibbs.WorkerPanicError

// World is a MAP assignment of all ground atoms.
type World = core.World

// Value is a runtime relation value.
type Value = storage.Value

// Row is one relation tuple.
type Row = storage.Row

// New creates a System.
func New(cfg Config) *System { return core.NewSystem(cfg) }

// Int builds an integer value.
func Int(v int64) Value { return storage.Int(v) }

// Float builds a double value.
func Float(v float64) Value { return storage.Float(v) }

// Bool builds a boolean value.
func Bool(v bool) Value { return storage.Bool(v) }

// Str builds a text value.
func Str(v string) Value { return storage.Str(v) }

// Point builds a point geometry value.
func Point(x, y float64) Value { return storage.Geom(geom.Pt(x, y)) }

// Null is the NULL value.
var Null = storage.Null

// Vals builds a value slice (ground-atom key arguments).
func Vals(vs ...Value) []Value { return vs }
