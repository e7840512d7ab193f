package rowclone

import (
	"testing"

	"ambit/internal/dram"
)

func TestLISARequiresEnable(t *testing.T) {
	d := testDevice(t)
	e := New(d)
	src := dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(0)}
	dst := dram.PhysAddr{Bank: 0, Subarray: 1, Row: dram.D(0)}
	if _, err := e.LISA(src, dst); err == nil {
		t.Error("LISA without EnableLISA accepted")
	}
}

func TestLISAFunctionalAndFaster(t *testing.T) {
	d := testDevice(t)
	e := New(d)
	e.EnableLISA = true
	data := randRow(t, d, 20)
	src := dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(3)}
	dst := dram.PhysAddr{Bank: 0, Subarray: 1, Row: dram.D(4)}
	if err := d.PokeRow(src, data); err != nil {
		t.Fatal(err)
	}
	lat, err := e.LISA(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, d, dst, data)
	mustEqual(t, d, src, data)
	// LISA beats PSM for adjacent subarrays but is slower than FPM.
	if lat >= e.PSMLatencyNS() {
		t.Errorf("LISA (%g) not faster than PSM (%g)", lat, e.PSMLatencyNS())
	}
	if lat <= e.FPMLatencyNS() {
		t.Errorf("LISA (%g) should not beat FPM (%g)", lat, e.FPMLatencyNS())
	}
	if e.Stats().LISACopies != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestLISAValidation(t *testing.T) {
	d := testDevice(t)
	e := New(d)
	e.EnableLISA = true
	if _, err := e.LISA(
		dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(0)},
		dram.PhysAddr{Bank: 1, Subarray: 0, Row: dram.D(0)}); err == nil {
		t.Error("cross-bank LISA accepted")
	}
	if _, err := e.LISA(
		dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(0)},
		dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(1)}); err == nil {
		t.Error("intra-subarray LISA accepted")
	}
}

func TestLISAHopScaling(t *testing.T) {
	d := testDevice(t)
	e := New(d)
	near := e.LISALatencyNS(0, 1)
	if far := e.LISALatencyNS(0, 3); far-near != 2*LISAHopNS {
		t.Errorf("hop scaling: near %g, far %g", near, far)
	}
	if e.LISALatencyNS(3, 0) != e.LISALatencyNS(0, 3) {
		t.Error("LISA latency not symmetric")
	}
}

// TestLISALatencyAbsolute pins LISA's latency itself, which hop differences
// cannot: source ACTIVATE (tRAS), destination write (tRAS) and PRECHARGE
// (tRP), restated from DDR3-1600's fields, plus 8 ns per subarray boundary
// crossed, through both LISALatencyNS and the latency a LISA copy returns.
func TestLISALatencyAbsolute(t *testing.T) {
	tm := dram.DDR3_1600()
	g := dram.Geometry{Banks: 1, SubarraysPerBank: 4, RowsPerSubarray: 64, RowSizeBytes: 64}
	d, err := dram.NewDevice(dram.Config{Geometry: g, Timing: tm})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	e.EnableLISA = true
	for _, hops := range []int{1, 3} {
		want := 2*tm.TRAS + tm.TRP + float64(hops)*8
		if got := e.LISALatencyNS(0, hops); got != want {
			t.Errorf("LISALatencyNS over %d hops = %g ns, want %g", hops, got, want)
		}
		got, err := e.LISA(dram.PhysAddr{Subarray: 0, Row: dram.D(0)}, dram.PhysAddr{Subarray: hops, Row: dram.D(1)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("LISA copy over %d hops took %g ns, want %g", hops, got, want)
		}
	}
}

func TestCopyPrefersLISAWhenEnabled(t *testing.T) {
	d := testDevice(t)
	e := New(d)
	src := dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(0)}
	dst := dram.PhysAddr{Bank: 0, Subarray: 1, Row: dram.D(0)}
	mode, _, err := e.Copy(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if mode != ModePSM {
		t.Errorf("without LISA: mode %v, want PSM", mode)
	}
	e.EnableLISA = true
	mode, _, err = e.Copy(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if mode != ModeLISA {
		t.Errorf("with LISA: mode %v, want LISA", mode)
	}
	// Cross-bank still uses PSM even with LISA on.
	mode, _, err = e.Copy(src, dram.PhysAddr{Bank: 1, Subarray: 0, Row: dram.D(0)})
	if err != nil {
		t.Fatal(err)
	}
	if mode != ModePSM {
		t.Errorf("cross-bank with LISA: mode %v, want PSM", mode)
	}
	if ModeLISA.String() != "LISA" {
		t.Error("mode string")
	}
}
