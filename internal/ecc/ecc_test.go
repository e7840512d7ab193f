package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ambit/internal/controller"
)

func TestEncodeDecodeClean(t *testing.T) {
	data := []uint64{1, 2, 3, ^uint64(0)}
	c := Encode(data)
	if !c.Healthy() {
		t.Fatal("fresh codeword unhealthy")
	}
	got, corrected := c.Decode()
	if corrected != 0 {
		t.Errorf("clean decode corrected %d bits", corrected)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d = %#x", i, got[i])
		}
	}
}

func TestSingleReplicaFaultCorrected(t *testing.T) {
	data := []uint64{0xDEADBEEF, 0x12345678}
	c := Encode(data)
	if err := c.InjectFault(1, 0, 0b1011); err != nil {
		t.Fatal(err)
	}
	if c.Healthy() {
		t.Fatal("fault not visible")
	}
	got, corrected := c.Decode()
	if corrected != 3 {
		t.Errorf("corrected %d bits, want 3", corrected)
	}
	if got[0] != 0xDEADBEEF {
		t.Fatalf("decode = %#x", got[0])
	}
}

func TestFaultsInDifferentWordsOfDifferentReplicas(t *testing.T) {
	// TMR corrects per bit position: independent faults in different
	// replicas at different positions are all fixed.
	data := []uint64{7, 8, 9}
	c := Encode(data)
	_ = c.InjectFault(0, 0, 1<<5)
	_ = c.InjectFault(1, 1, 1<<9)
	_ = c.InjectFault(2, 2, 1<<13)
	got, _ := c.Decode()
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestDoubleFaultMiscorrects(t *testing.T) {
	// The TMR limit: the same bit flipped in two replicas wins the vote.
	c := Encode([]uint64{0})
	_ = c.InjectFault(0, 0, 1)
	_ = c.InjectFault(1, 0, 1)
	got, _ := c.Decode()
	if got[0] != 1 {
		t.Fatalf("expected miscorrection to 1, got %#x", got[0])
	}
}

func TestScrub(t *testing.T) {
	c := Encode([]uint64{42})
	_ = c.InjectFault(2, 0, 0xFF)
	if n := c.Scrub(); n != 8 {
		t.Errorf("scrub corrected %d bits, want 8", n)
	}
	if !c.Healthy() {
		t.Error("codeword unhealthy after scrub")
	}
}

func TestInjectFaultValidation(t *testing.T) {
	c := Encode([]uint64{1})
	if err := c.InjectFault(3, 0, 1); err == nil {
		t.Error("replica out of range accepted")
	}
	if err := c.InjectFault(0, 1, 1); err == nil {
		t.Error("word out of range accepted")
	}
}

// TestHomomorphism is the core Section 5.4.5 property:
// ECC(A op B) = ECC(A) op ECC(B) for every bulk bitwise operation.
func TestHomomorphism(t *testing.T) {
	f := func(a, b uint64, opIdx uint8) bool {
		op := controller.Ops[int(opIdx)%len(controller.Ops)]
		ca, cb := Encode([]uint64{a}), Encode([]uint64{b})
		applied, err := Apply(op, ca, cb)
		if err != nil {
			return false
		}
		direct := Encode([]uint64{op.Eval(a, b)})
		for r := 0; r < Replicas; r++ {
			if applied.replicas[r][0] != direct.replicas[r][0] {
				return false
			}
		}
		got, corrected := applied.Decode()
		return corrected == 0 && got[0] == op.Eval(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeThenCorrect: a fault striking ONE replica during an in-memory
// operation chain is still corrected at decode time — the reason TMR
// composes with Ambit.
func TestComputeThenCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		a, b := rng.Uint64(), rng.Uint64()
		ca, cb := Encode([]uint64{a}), Encode([]uint64{b})
		step1, err := Apply(controller.OpXor, ca, cb)
		if err != nil {
			t.Fatal(err)
		}
		// A TRA glitch hits one replica of the intermediate.
		_ = step1.InjectFault(rng.Intn(Replicas), 0, 1<<uint(rng.Intn(64)))
		step2, err := Apply(controller.OpNot, step1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, corrected := step2.Decode()
		if corrected == 0 {
			t.Fatal("fault disappeared")
		}
		if want := ^(a ^ b); got[0] != want {
			t.Fatalf("trial %d: decode %#x, want %#x", trial, got[0], want)
		}
	}
}

func TestApplyValidation(t *testing.T) {
	if _, err := Apply(controller.OpAnd, Encode([]uint64{1}), nil); err == nil {
		t.Error("nil binary operand accepted")
	}
	if _, err := Apply(controller.OpAnd, Encode([]uint64{1}), Encode([]uint64{1, 2})); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Apply(controller.OpNot, Encode([]uint64{1}), nil); err != nil {
		t.Error("unary with nil b rejected")
	}
	if _, err := Apply(controller.OpNot, nil, nil); err == nil {
		t.Error("nil a accepted")
	}
}

func TestFromReplicas(t *testing.T) {
	c, err := FromReplicas([]uint64{1}, []uint64{1}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c.Decode()
	if got[0] != 1 { // majority of 1,1,3 bitwise: bit0: 1,1,1->1; bit1: 0,0,1->0
		t.Errorf("decode = %d", got[0])
	}
	if _, err := FromReplicas([]uint64{1}, []uint64{1, 2}, []uint64{1}); err == nil {
		t.Error("ragged replicas accepted")
	}
}

func TestReplicaReturnsCopy(t *testing.T) {
	c := Encode([]uint64{5})
	r := c.Replica(0)
	r[0] = 99
	if got, _ := c.Decode(); got[0] != 5 {
		t.Error("Replica exposed internal storage")
	}
}

func TestOverheadConstants(t *testing.T) {
	if CapacityOverhead != 3 || OperationOverhead != 3 {
		t.Error("TMR overheads must be 3x")
	}
}

// TestVoteRowsInPlace: the controller's vote writes the majority over one
// of its own replicas, and must match Codeword.Decode bit for bit,
// including the disagreement count, with every replica taking faults.
func TestVoteRowsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		var r [3][]uint64
		for i := range r {
			r[i] = make([]uint64, n)
			for w := range r[i] {
				r[i][w] = rng.Uint64()
			}
		}
		c, err := FromReplicas(r[0], r[1], r[2])
		if err != nil {
			t.Fatal(err)
		}
		want, wantBad := c.Decode()
		bad, err := VoteRows(r[0], r[0], r[1], r[2])
		if err != nil {
			t.Fatal(err)
		}
		if bad != wantBad {
			t.Fatalf("trial %d: %d disagreeing bits, Decode says %d", trial, bad, wantBad)
		}
		for w := range want {
			if r[0][w] != want[w] {
				t.Fatalf("trial %d word %d: voted %#x, Decode %#x", trial, w, r[0][w], want[w])
			}
		}
	}
	if _, err := VoteRows(make([]uint64, 2), []uint64{1, 2}, []uint64{1, 2}, []uint64{1}); err == nil {
		t.Error("ragged replicas accepted")
	}
	if _, err := VoteRows(make([]uint64, 1), []uint64{1, 2}, []uint64{1, 2}, []uint64{1, 2}); err == nil {
		t.Error("short destination accepted")
	}
}
