package controller

import "ambit/internal/dram"

// Hooks for the external test package, which imports internal/compile (an
// importer of this package) to drive compiled trains.

// NetChunk is the net-effect evaluation granularity in words.
const NetChunk = netChunk

// SetNoFuse forces every train of c onto the step-by-step path.
func SetNoFuse(c *Controller, noFuse bool) { c.noFuse = noFuse }

// HasNetProgram reports whether t compiled to a net-effect program.
func HasNetProgram(t *Train) bool { return t.net != nil }

// LayoutFusable reports whether the net program is exact for rows.
func LayoutFusable(t *Train, rows []dram.RowAddr) bool { return t.layoutFusable(rows) }

// OpTrain returns op's Figure-8 train.
func OpTrain(op Op) *Train { return opTrains[op] }

// FaultEvents returns the injector consultations one run of t makes.
func FaultEvents(t *Train) []dram.FaultEvent { return t.faults }
