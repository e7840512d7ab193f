// Package program models a recorded sequence of bulk bitwise operations as
// a dependency graph over the physical DRAM rows each operation reads and
// writes.
//
// The follow-up work to Ambit ("In-DRAM Bulk Bitwise Execution Engine",
// Seshadri & Mutlu, arXiv 1905.09822) frames bulk bitwise workloads as
// *programs* of row-level primitives rather than isolated calls.  Expressing
// a workload this way exposes the parallelism Section 7 of the Ambit paper
// attributes to independent DRAM banks: any two operations whose operand row
// sets do not conflict may execute concurrently, and their per-bank command
// trains overlap in time.
//
// Build derives the classic three hazard kinds from the row sets:
//
//   - RAW: an op that reads a row depends on the last op that wrote it.
//   - WAW: an op that writes a row depends on the last op that wrote it.
//   - WAR: an op that writes a row depends on every op that read it since
//     the last write.
//
// The resulting Graph is a DAG whose edges always point from a lower op
// index to a higher one (program order), so iterating ops in index order is
// a valid topological order.  The root package's Batch uses the graph to
// compute the deterministic per-bank timeline schedule and the program's
// dependency depth (Waves); its functional phase needs no graph, because
// running each bank's rows in recording order already respects every
// dependency between co-located rows.  The compiler's liveness pass
// (internal/compile) walks the same graph.
package program

import "ambit/internal/dram"

// Op is one node of a program: a recorded bulk operation described solely by
// the physical rows it reads and writes.  The Label is carried through for
// diagnostics and has no semantic meaning.
type Op struct {
	Label string
	// Reads lists every DRAM row whose prior contents the op consumes.
	Reads []dram.PhysAddr
	// Writes lists every DRAM row the op overwrites.  A row may appear in
	// both sets (in-place update).
	Writes []dram.PhysAddr
}

// Graph is the dependency DAG of a program.  Edges point from earlier ops to
// later ops, so op index order is a topological order.
type Graph struct {
	deps  [][]int
	succs [][]int
	level []int
	waves int
}

// Build constructs the dependency graph of ops in one pass over their row
// sets.  For each row it tracks the last writer and the readers since that
// write, yielding exactly the RAW, WAW, and WAR edges — no transitive
// closure, so the graph stays sparse.
func Build(ops []Op) *Graph {
	g := &Graph{
		deps:  make([][]int, len(ops)),
		succs: make([][]int, len(ops)),
		level: make([]int, len(ops)),
	}
	lastWriter := make(map[dram.PhysAddr]int)
	readers := make(map[dram.PhysAddr][]int)
	for i, op := range ops {
		depSet := make(map[int]struct{})
		for _, r := range op.Reads {
			if w, ok := lastWriter[r]; ok {
				depSet[w] = struct{}{} // RAW
			}
		}
		for _, w := range op.Writes {
			if lw, ok := lastWriter[w]; ok {
				depSet[lw] = struct{}{} // WAW
			}
			for _, rd := range readers[w] {
				depSet[rd] = struct{}{} // WAR
			}
		}
		for d := range depSet {
			g.deps[i] = append(g.deps[i], d)
			g.succs[d] = append(g.succs[d], i)
			if g.level[d]+1 > g.level[i] {
				g.level[i] = g.level[d] + 1
			}
		}
		sortInts(g.deps[i])
		if g.level[i]+1 > g.waves {
			g.waves = g.level[i] + 1
		}
		// Register this op's accesses only after its deps are computed,
		// so an op never depends on itself.
		for _, r := range op.Reads {
			readers[r] = append(readers[r], i)
		}
		for _, w := range op.Writes {
			lastWriter[w] = i
			readers[w] = nil
		}
	}
	return g
}

// N returns the number of ops in the graph.
func (g *Graph) N() int { return len(g.deps) }

// Deps returns the indices of the ops that must complete before op i starts,
// sorted ascending.  The caller must not modify the returned slice.
func (g *Graph) Deps(i int) []int { return g.deps[i] }

// Succs returns the indices of the ops that depend on op i.  The caller must
// not modify the returned slice.
func (g *Graph) Succs(i int) []int { return g.succs[i] }

// Level returns op i's dependency depth: 0 for ops with no dependencies,
// otherwise 1 + the maximum level among its dependencies.  Ops of equal
// level never conflict and may execute concurrently.
func (g *Graph) Level(i int) int { return g.level[i] }

// Waves returns the number of dependency levels — the length of the longest
// dependency chain.  A program of N ops with Waves() == 1 is fully parallel;
// Waves() == N is fully serial.
func (g *Graph) Waves() int {
	if g.N() == 0 {
		return 0
	}
	return g.waves
}

// sortInts is an insertion sort: dep lists are tiny and this keeps the
// package dependency-free.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
