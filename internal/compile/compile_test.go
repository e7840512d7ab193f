package compile

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// norm builds the normalized node of e on a fresh builder.
func norm(t *testing.T, e *Expr) (*builder, *node) {
	t.Helper()
	b := newBuilder()
	return b, b.normalize(e, make(map[*Expr]*node))
}

func TestNormalizationConstantFolding(t *testing.T) {
	cases := []struct {
		e    *Expr
		want bool
	}{
		{And(Var(0), Lit(false)), false},
		{Or(Var(0), Lit(true)), true},
		{Xor(Lit(true), Lit(true)), false},
		{And(Var(0), Not(Var(0))), false},
		{Or(Var(3), Not(Var(3))), true},
		{Maj(Lit(true), Lit(false), Lit(true)), true},
		{Xnor(Var(1), Var(1)), true},
	}
	for _, c := range cases {
		_, n := norm(t, c.e)
		if n.kind != nConst || n.val != c.want {
			t.Errorf("%v: normalized to %s, want constant %v", c.e, renderNode(n), c.want)
		}
	}
}

func TestNormalizationIdentities(t *testing.T) {
	// Identity-operand elimination and absorption leave the bare operand.
	for _, e := range []*Expr{
		And(Var(2), Lit(true)),
		Or(Var(2), Lit(false)),
		Xor(Var(2), Lit(false)),
		And(Var(2), Var(2)),
		Maj(Var(2), Var(2), Var(5)),
		Maj(Var(2), Var(5), Not(Var(5))),
		Not(Not(Var(2))),
	} {
		_, n := norm(t, e)
		if n.kind != nLeaf || n.neg || n.varIdx != 2 {
			t.Errorf("%v: normalized to %s, want v2", e, renderNode(n))
		}
	}
}

func TestNormalizationCSE(t *testing.T) {
	// Structurally identical subterms built as distinct Expr trees must
	// intern to the same node, and commuted operands must too.
	b := newBuilder()
	cache := make(map[*Expr]*node)
	x := b.normalize(And(Var(0), Var(1)), cache)
	y := b.normalize(And(Var(1), Var(0)), cache)
	if x != y {
		t.Fatalf("And(v0,v1) and And(v1,v0) interned to distinct nodes")
	}
	z := b.normalize(Maj(Var(2), Var(0), Var(1)), cache)
	w := b.normalize(Maj(Var(1), Var(2), Var(0)), cache)
	if z != w {
		t.Fatalf("commuted Maj interned to distinct nodes")
	}
}

func TestNormalizationDeMorgan(t *testing.T) {
	// !a & !b rewrites to !(a | b): one DCC capture instead of two.
	_, n := norm(t, And(Not(Var(0)), Not(Var(1))))
	if n.kind != nGate || n.gk != gNot {
		t.Fatalf("!v0 & !v1 normalized to %s, want a negated Or", renderNode(n))
	}
	inner := n.args[0]
	if inner.kind != nGate || inner.gk != gOr {
		t.Fatalf("De Morgan inner node is %s, want v0 | v1", renderNode(inner))
	}
	// MAJ self-duality.
	_, m := norm(t, Maj(Not(Var(0)), Not(Var(1)), Not(Var(2))))
	if m.kind != nGate || m.gk != gNot || m.args[0].gk != gMaj {
		t.Fatalf("MAJ(!a,!b,!c) normalized to %s, want !MAJ(a,b,c)", renderNode(m))
	}
}

// truthPattern returns the truth-table pattern word of variable i: over the
// low 2^n bits, bit p holds the value of variable i in input pattern p.
func truthPattern(i int) uint64 {
	var w uint64
	for p := 0; p < 64; p++ {
		if p&(1<<uint(i)) != 0 {
			w |= 1 << uint(p)
		}
	}
	return w
}

// bruteEval evaluates e for one boolean assignment (bit p of each pattern).
func bruteEval(e *Expr, assign func(i int) bool) bool {
	switch e.kind {
	case xVar:
		return assign(e.varIdx)
	case xConst:
		return e.val
	case xNot:
		return !bruteEval(e.args[0], assign)
	case xAnd:
		for _, a := range e.args {
			if !bruteEval(a, assign) {
				return false
			}
		}
		return true
	case xOr:
		for _, a := range e.args {
			if bruteEval(a, assign) {
				return true
			}
		}
		return false
	case xXor:
		v := false
		for _, a := range e.args {
			v = v != bruteEval(a, assign)
		}
		return v
	}
	n := 0
	for _, a := range e.args {
		if bruteEval(a, assign) {
			n++
		}
	}
	return n >= 2
}

func TestEvalExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := make([]uint64, 6)
	for i := range vars {
		vars[i] = truthPattern(i)
	}
	for trial := 0; trial < 200; trial++ {
		e := randomExpr(rng, 3, 6)
		got := Eval(e, vars)
		for p := 0; p < 64; p++ {
			gotBit := (got>>uint(p))&1 == 1
			want := bruteEval(e, func(i int) bool { return p&(1<<uint(i)) != 0 })
			if gotBit != want {
				t.Fatalf("trial %d: %v: Eval pattern %06b = %v, brute force %v",
					trial, e, p, gotBit, want)
			}
		}
	}
}

// randomExpr generates a random expression DAG with occasional sharing.
func randomExpr(rng *rand.Rand, depth, nvars int) *Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(8) == 0 {
			return Lit(rng.Intn(2) == 1)
		}
		return Var(rng.Intn(nvars))
	}
	sub := func() *Expr { return randomExpr(rng, depth-1, nvars) }
	switch rng.Intn(6) {
	case 0:
		return Not(sub())
	case 1:
		return And(sub(), sub())
	case 2:
		return Or(sub(), sub())
	case 3:
		return Xor(sub(), sub())
	case 4:
		return Maj(sub(), sub(), sub())
	}
	// Deliberate sharing: one subterm used twice.
	s := sub()
	return Or(And(s, sub()), s)
}

func TestCompileSpillReport(t *testing.T) {
	// Seven And-gates combined pairwise in a complete graph: whichever of
	// the seven is scheduled last, the other six still have a pending pair
	// consumer, so seven values are live at once under ANY topological
	// order — guaranteed to exceed the six designated-row slots.
	ps := make([]*Expr, 7)
	for i := range ps {
		ps[i] = And(Var(2*i), Var(2*i+1))
	}
	var qs []*Expr
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			qs = append(qs, And(ps[i], ps[j]))
		}
	}
	_, err := CompileFn("spiller", Or(qs...))
	if err == nil {
		t.Fatal("compile succeeded, want SpillError")
	}
	var se *SpillError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *SpillError", err, err)
	}
	if len(se.Live) < 4 {
		t.Errorf("spill report lists %d live ranges, want the blocked values: %v", len(se.Live), err)
	}
	if !strings.Contains(se.Error(), "lastUse") {
		t.Errorf("spill report lacks live-range table: %v", se)
	}
}

// TestCompileOperandLimit: a function may name up to MaxOperands inputs plus
// outputs.  One more is rejected before anything is allocated per input, so
// a huge variable index costs nothing.
func TestCompileOperandLimit(t *testing.T) {
	if _, err := CompileFn("edge", Var(MaxOperands-2)); err != nil {
		t.Fatalf("%d inputs + 1 output: %v", MaxOperands-1, err)
	}
	for _, exprs := range [][]*Expr{
		{Var(MaxOperands - 1)},
		{Var(0), Var(MaxOperands - 2)},
		{Var(4194304)},
		{Var(int(^uint(0) >> 1))},
	} {
		if _, err := CompileFn("big", exprs...); err == nil || !strings.Contains(err.Error(), "operand limit") {
			t.Errorf("CompileFn(Var(%d), ... %d outputs) = %v, want the operand-limit error", MaxVar(exprs...), len(exprs), err)
		}
	}
	huge := testing.AllocsPerRun(5, func() {
		if _, err := CompileFn("big", Var(4194304)); err == nil {
			t.Fatal("accepted")
		}
	})
	if huge > 20 {
		t.Errorf("rejecting Var(4194304) made %v allocations", huge)
	}
}

func TestCompileKeyCanonical(t *testing.T) {
	mk := func() (*Compiled, error) {
		return CompileFn("f", Or(And(Var(0), Var(1)), Not(Var(2))))
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == "" || a.Key != b.Key {
		t.Fatalf("structurally identical functions got keys %q and %q", a.Key, b.Key)
	}
	c, err := CompileFn("g", Or(And(Var(0), Var(1)), Not(Var(3))))
	if err != nil {
		t.Fatal(err)
	}
	if c.Key == a.Key {
		t.Fatalf("distinct functions share key %q", a.Key)
	}
}
