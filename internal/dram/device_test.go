package dram

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"
)

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(Config{Geometry: smallGeom(), Timing: DDR3_1600()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	if _, err := NewDevice(Config{Geometry: Geometry{}, Timing: DDR3_1600()}); err == nil {
		t.Fatal("NewDevice accepted zero geometry")
	}
	if _, err := NewDevice(Config{Geometry: smallGeom(), Timing: Timing{}}); err == nil {
		t.Fatal("NewDevice accepted zero timing")
	}
}

func TestDeviceReadWriteRow(t *testing.T) {
	d := newTestDevice(t)
	rng := rand.New(rand.NewSource(10))
	data := randRow(rng, d.Geometry().WordsPerRow())
	p := PhysAddr{Bank: 1, Subarray: 1, Row: D(4)}
	if err := d.WriteRow(p, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRow(p)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(got, data) {
		t.Fatalf("ReadRow = %x, want %x", got, data)
	}
}

// TestDevicePopcountRow: counting a row in place issues exactly ReadRow's
// commands and agrees with counting a copy.
func TestDevicePopcountRow(t *testing.T) {
	d, ref := newTestDevice(t), newTestDevice(t)
	rng := rand.New(rand.NewSource(12))
	data := randRow(rng, d.Geometry().WordsPerRow())
	p := PhysAddr{Bank: 1, Subarray: 0, Row: D(2)}
	for _, dev := range []*Device{d, ref} {
		if err := dev.PokeRow(p, data); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.PopcountRow(p)
	if err != nil {
		t.Fatal(err)
	}
	row, err := ref.ReadRow(p)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, w := range row {
		want += int64(bits.OnesCount64(w))
	}
	if got != want {
		t.Errorf("PopcountRow = %d, want %d", got, want)
	}
	if d.Stats() != ref.Stats() {
		t.Errorf("PopcountRow census %+v, ReadRow census %+v", d.Stats(), ref.Stats())
	}
	if _, err := d.PopcountRow(PhysAddr{Bank: 9, Row: D(0)}); err == nil {
		t.Error("PopcountRow accepted an out-of-range bank")
	}
}

func TestDeviceWriteRowSizeCheck(t *testing.T) {
	d := newTestDevice(t)
	err := d.WriteRow(PhysAddr{Row: D(0)}, make([]uint64, 3))
	if !errors.Is(err, ErrRowSize) {
		t.Fatalf("err = %v, want ErrRowSize", err)
	}
}

func TestDeviceStatsCounting(t *testing.T) {
	d := newTestDevice(t)
	p := PhysAddr{Bank: 0, Subarray: 0, Row: D(0)}
	if err := d.Activate(p); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	// A TRA activation should count as a 3-wordline ACTIVATE.
	if err := d.Activate(PhysAddr{Bank: 0, Subarray: 0, Row: B(12)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Activates[0] != 1 || s.Activates[2] != 1 {
		t.Fatalf("Activates = %v, want 1 single + 1 triple", s.Activates)
	}
	if s.Precharges != 2 {
		t.Fatalf("Precharges = %d, want 2", s.Precharges)
	}
	if s.TotalActivates() != 2 {
		t.Fatalf("TotalActivates = %d, want 2", s.TotalActivates())
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Activates: [MaxSimultaneousWordlines]int64{5, 2, 1}, Precharges: 4, ColumnReads: 7, ColumnWrites: 3}
	b := Stats{Activates: [MaxSimultaneousWordlines]int64{1, 1, 1}, Precharges: 1, ColumnReads: 2, ColumnWrites: 1}
	var sum Stats
	sum.Add(a)
	sum.Add(b)
	if sum.TotalActivates() != 11 || sum.Precharges != 5 {
		t.Fatalf("Add: %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub: %+v, want %+v", diff, a)
	}
}

func TestBankConflictAcrossSubarrays(t *testing.T) {
	// Activating subarray 1 while subarray 0 is open in the same bank
	// violates the protocol.
	d := newTestDevice(t)
	if err := d.Activate(PhysAddr{Bank: 0, Subarray: 0, Row: D(0)}); err != nil {
		t.Fatal(err)
	}
	err := d.Activate(PhysAddr{Bank: 0, Subarray: 1, Row: D(0)})
	if !errors.Is(err, ErrBankActive) {
		t.Fatalf("cross-subarray activate: err = %v, want ErrBankActive", err)
	}
	// Same subarray is fine (that is the AAP copy path).
	if err := d.Activate(PhysAddr{Bank: 0, Subarray: 0, Row: D(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestBanksAreIndependent(t *testing.T) {
	d := newTestDevice(t)
	if err := d.Activate(PhysAddr{Bank: 0, Subarray: 0, Row: D(0)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(PhysAddr{Bank: 1, Subarray: 1, Row: D(3)}); err != nil {
		t.Fatalf("independent banks: %v", err)
	}
	if !d.Bank(0).Activated() || !d.Bank(1).Activated() {
		t.Fatal("banks not both activated")
	}
	d.PrechargeAll()
	if d.Bank(0).Activated() || d.Bank(1).Activated() {
		t.Fatal("PrechargeAll left a bank open")
	}
}

func TestDeviceRangeErrors(t *testing.T) {
	d := newTestDevice(t)
	if err := d.Activate(PhysAddr{Bank: 99, Row: D(0)}); err == nil {
		t.Error("bank out of range accepted")
	}
	if err := d.Precharge(-1); err == nil {
		t.Error("precharge bank out of range accepted")
	}
	if _, err := d.ReadColumn(99, 0); err == nil {
		t.Error("read bank out of range accepted")
	}
	if err := d.WriteColumn(99, 0, 0); err == nil {
		t.Error("write bank out of range accepted")
	}
	if _, err := d.ReadColumn(0, 0); !errors.Is(err, ErrBankPrecharged) {
		t.Errorf("read on precharged bank: err = %v", err)
	}
}

func TestPeekPokeRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	rng := rand.New(rand.NewSource(11))
	data := randRow(rng, d.Geometry().WordsPerRow())
	p := PhysAddr{Bank: 1, Subarray: 0, Row: D(7)}
	if err := d.PokeRow(p, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.PeekRow(p)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(got, data) {
		t.Fatal("peek/poke round trip failed")
	}
	if _, err := d.PeekRow(PhysAddr{Bank: 99, Row: D(0)}); err == nil {
		t.Error("PeekRow out of range accepted")
	}
	if err := d.PokeRow(PhysAddr{Bank: 99, Row: D(0)}, data); err == nil {
		t.Error("PokeRow out of range accepted")
	}
}

func TestBankReserveTiming(t *testing.T) {
	b := NewBank(smallGeom())
	if got := b.Reserve(0, 49); got != 49 {
		t.Fatalf("Reserve(0,49) = %g", got)
	}
	// Starting before the bank is free queues behind the current train.
	if got := b.Reserve(10, 49); got != 98 {
		t.Fatalf("Reserve(10,49) = %g, want 98", got)
	}
	// Starting after it's free begins at the requested time.
	if got := b.Reserve(200, 45); got != 245 {
		t.Fatalf("Reserve(200,45) = %g, want 245", got)
	}
	if b.BusyUntil() != 245 {
		t.Fatalf("BusyUntil = %g", b.BusyUntil())
	}
}

// TestFullNOTSequence drives the exact command sequence of Section 5.2 for
// Dk = not Di through the device interface and checks the result.
func TestFullNOTSequence(t *testing.T) {
	d := newTestDevice(t)
	rng := rand.New(rand.NewSource(12))
	src := randRow(rng, d.Geometry().WordsPerRow())
	sub := 0
	if err := d.PokeRow(PhysAddr{0, sub, D(2)}, src); err != nil {
		t.Fatal(err)
	}
	seq := []RowAddr{D(2), B(5)} // AAP(Di, B5)
	for _, a := range seq {
		if err := d.Activate(PhysAddr{0, sub, a}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	seq = []RowAddr{B(4), D(3)} // AAP(B4, Dk)
	for _, a := range seq {
		if err := d.Activate(PhysAddr{0, sub, a}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	got, _ := d.PeekRow(PhysAddr{0, sub, D(3)})
	for i := range src {
		if got[i] != ^src[i] {
			t.Fatalf("NOT: word %d = %#x, want %#x", i, got[i], ^src[i])
		}
	}
	// Source must be unchanged.
	s, _ := d.PeekRow(PhysAddr{0, sub, D(2)})
	if !equalRows(s, src) {
		t.Fatal("NOT destroyed the source row")
	}
}

// TestFullANDSequence drives Figure 8a: Dk = Di and Dj.
func TestFullANDSequence(t *testing.T) {
	d := newTestDevice(t)
	rng := rand.New(rand.NewSource(13))
	w := d.Geometry().WordsPerRow()
	di, dj := randRow(rng, w), randRow(rng, w)
	if err := d.PokeRow(PhysAddr{0, 0, D(0)}, di); err != nil {
		t.Fatal(err)
	}
	if err := d.PokeRow(PhysAddr{0, 0, D(1)}, dj); err != nil {
		t.Fatal(err)
	}
	aap := func(a1, a2 RowAddr) {
		t.Helper()
		if err := d.Activate(PhysAddr{0, 0, a1}); err != nil {
			t.Fatal(err)
		}
		if err := d.Activate(PhysAddr{0, 0, a2}); err != nil {
			t.Fatal(err)
		}
		if err := d.Precharge(0); err != nil {
			t.Fatal(err)
		}
	}
	aap(D(0), B(0))  // T0 = Di
	aap(D(1), B(1))  // T1 = Dj
	aap(C(0), B(2))  // T2 = 0
	aap(B(12), D(2)) // Dk = T0 & T1
	got, _ := d.PeekRow(PhysAddr{0, 0, D(2)})
	for i := 0; i < w; i++ {
		if got[i] != di[i]&dj[i] {
			t.Fatalf("AND word %d = %#x, want %#x", i, got[i], di[i]&dj[i])
		}
	}
}
