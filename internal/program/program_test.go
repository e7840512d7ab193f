package program

import (
	"reflect"
	"testing"

	"ambit/internal/dram"
)

// row builds a distinct physical row address for testing.
func row(bank, idx int) dram.PhysAddr {
	return dram.PhysAddr{Bank: bank, Subarray: 0, Row: dram.D(idx)}
}

func TestEmptyProgram(t *testing.T) {
	g := Build(nil)
	if g.N() != 0 || g.Waves() != 0 {
		t.Fatalf("empty graph: N=%d Waves=%d", g.N(), g.Waves())
	}
}

func TestIndependentOpsHaveNoEdges(t *testing.T) {
	ops := []Op{
		{Reads: []dram.PhysAddr{row(0, 0)}, Writes: []dram.PhysAddr{row(0, 1)}},
		{Reads: []dram.PhysAddr{row(1, 0)}, Writes: []dram.PhysAddr{row(1, 1)}},
		{Reads: []dram.PhysAddr{row(2, 0)}, Writes: []dram.PhysAddr{row(2, 1)}},
	}
	g := Build(ops)
	for i := 0; i < g.N(); i++ {
		if len(g.Deps(i)) != 0 {
			t.Errorf("op %d has deps %v, want none", i, g.Deps(i))
		}
		if g.Level(i) != 0 {
			t.Errorf("op %d level %d, want 0", i, g.Level(i))
		}
	}
	if g.Waves() != 1 {
		t.Errorf("Waves = %d, want 1", g.Waves())
	}
}

func TestRAWChain(t *testing.T) {
	// op0 writes X; op1 reads X writes Y; op2 reads Y.
	x, y := row(0, 0), row(0, 1)
	ops := []Op{
		{Writes: []dram.PhysAddr{x}},
		{Reads: []dram.PhysAddr{x}, Writes: []dram.PhysAddr{y}},
		{Reads: []dram.PhysAddr{y}},
	}
	g := Build(ops)
	if !reflect.DeepEqual(g.Deps(1), []int{0}) {
		t.Errorf("op1 deps = %v, want [0]", g.Deps(1))
	}
	if !reflect.DeepEqual(g.Deps(2), []int{1}) {
		t.Errorf("op2 deps = %v, want [1]", g.Deps(2))
	}
	if g.Waves() != 3 {
		t.Errorf("Waves = %d, want 3", g.Waves())
	}
	if !reflect.DeepEqual(g.Succs(0), []int{1}) {
		t.Errorf("op0 succs = %v, want [1]", g.Succs(0))
	}
}

func TestWARDependency(t *testing.T) {
	// op0 and op1 read X; op2 writes X — must wait for both readers.
	x := row(3, 7)
	ops := []Op{
		{Reads: []dram.PhysAddr{x}},
		{Reads: []dram.PhysAddr{x}},
		{Writes: []dram.PhysAddr{x}},
	}
	g := Build(ops)
	if len(g.Deps(0)) != 0 || len(g.Deps(1)) != 0 {
		t.Error("concurrent readers must not depend on each other")
	}
	if !reflect.DeepEqual(g.Deps(2), []int{0, 1}) {
		t.Errorf("writer deps = %v, want [0 1]", g.Deps(2))
	}
}

func TestWAWDependency(t *testing.T) {
	x := row(1, 1)
	ops := []Op{
		{Writes: []dram.PhysAddr{x}},
		{Writes: []dram.PhysAddr{x}},
	}
	g := Build(ops)
	if !reflect.DeepEqual(g.Deps(1), []int{0}) {
		t.Errorf("WAW deps = %v, want [0]", g.Deps(1))
	}
}

func TestInPlaceOpDoesNotSelfDepend(t *testing.T) {
	x := row(0, 0)
	ops := []Op{
		{Writes: []dram.PhysAddr{x}},
		{Reads: []dram.PhysAddr{x}, Writes: []dram.PhysAddr{x}}, // x = f(x)
	}
	g := Build(ops)
	if !reflect.DeepEqual(g.Deps(1), []int{0}) {
		t.Errorf("in-place deps = %v, want [0]", g.Deps(1))
	}
}

func TestWriteClearsReaderSet(t *testing.T) {
	// After op1 overwrites X, op2's write to X depends only on op1 (the
	// WAW edge), not on op0's stale read.
	x := row(0, 5)
	ops := []Op{
		{Reads: []dram.PhysAddr{x}},
		{Writes: []dram.PhysAddr{x}},
		{Writes: []dram.PhysAddr{x}},
	}
	g := Build(ops)
	if !reflect.DeepEqual(g.Deps(2), []int{1}) {
		t.Errorf("op2 deps = %v, want [1]", g.Deps(2))
	}
}

func TestLevelsFormSchedulableWaves(t *testing.T) {
	// Diamond: op0 -> {op1, op2} -> op3.
	x, y, z := row(0, 0), row(0, 1), row(0, 2)
	ops := []Op{
		{Writes: []dram.PhysAddr{x}},
		{Reads: []dram.PhysAddr{x}, Writes: []dram.PhysAddr{y}},
		{Reads: []dram.PhysAddr{x}, Writes: []dram.PhysAddr{z}},
		{Reads: []dram.PhysAddr{y, z}},
	}
	g := Build(ops)
	levels := []int{g.Level(0), g.Level(1), g.Level(2), g.Level(3)}
	if !reflect.DeepEqual(levels, []int{0, 1, 1, 2}) {
		t.Errorf("levels = %v, want [0 1 1 2]", levels)
	}
	if g.Waves() != 3 {
		t.Errorf("Waves = %d, want 3", g.Waves())
	}
	// Every dep must sit on a strictly lower level.
	for i := 0; i < g.N(); i++ {
		for _, d := range g.Deps(i) {
			if g.Level(d) >= g.Level(i) {
				t.Errorf("dep %d (level %d) not below op %d (level %d)", d, g.Level(d), i, g.Level(i))
			}
		}
	}
}
