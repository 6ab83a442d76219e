// Package fof is what remains of a friends-of-friends social lower bound
// that AIS, TSA and the subscription skip test no longer use: at α = 0.3 it
// removed at most 0.6 exact evaluations per query on any preset, and at
// high α its tightened keys multiplied AIS's index pops (DESIGN.md §4.13).
// Nothing builds an Index any more.
//
// The identifiers below remain because bench/layers.go reads them; they do
// nothing.
package fof

import "ssrq/internal/graph"

// Index is the former bound's index. Nothing builds one: every *Index the
// program hands out is nil. It remains because bench/layers.go reads it.
type Index struct{}

// DefaultBudget was the former bound's 2-hop expansion budget. It remains
// because bench/layers.go reads it.
const DefaultBudget = 4096

// Scratch was the former bound's per-query state. It remains because
// bench/layers.go reads it.
type Scratch struct{}

// Arm does nothing. It remains because bench/layers.go calls it, only when
// it holds a non-nil Index, which it never does.
func (sc *Scratch) Arm(ix *Index, g *graph.Graph, q int32, budget int) {}

// Release does nothing. It remains because bench/layers.go calls it.
func (sc *Scratch) Release() {}
