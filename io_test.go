package ambit

// Tests of the redesigned host I/O surface: the canonical Write/Read pair
// with the Backdoor option, the allocation-free ReadInto/WriteAt paths, the
// channel-cost accounting each selects, and the deprecated Load/Peek
// wrappers' exact equivalence.

import (
	"errors"
	"math/rand"
	"testing"
)

// TestWriteAtPartialRows drives WriteAt through every coverage shape: fully
// covered rows, partially covered first/last rows (read-modify-write), and
// out-of-range rejection.
func TestWriteAtPartialRows(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Alloc(3 * int64(sys.RowSizeBits()))
	if err != nil {
		t.Fatal(err)
	}
	wpr := v.WordCount() / v.Rows()
	rng := rand.New(rand.NewSource(11))

	base := make([]uint64, v.WordCount())
	for i := range base {
		base[i] = rng.Uint64()
	}
	if err := v.Write(base, Backdoor()); err != nil {
		t.Fatal(err)
	}

	// Patch spans: row-interior, row-boundary-crossing, exactly one row,
	// head of vector, tail of vector.
	spans := [][2]int{
		{wpr / 4, wpr / 2},           // inside row 0
		{wpr - 3, wpr + 7},           // crosses rows 0-1
		{wpr, 2 * wpr},               // exactly row 1
		{0, 5},                       // head
		{3*wpr - 4, 3 * wpr},         // tail
		{wpr / 2, wpr/2 + 2*wpr + 1}, // three rows, ragged both ends
	}
	want := append([]uint64(nil), base...)
	for _, s := range spans {
		patch := make([]uint64, s[1]-s[0])
		for i := range patch {
			patch[i] = rng.Uint64()
		}
		if err := v.WriteAt(s[0], patch, Backdoor()); err != nil {
			t.Fatalf("WriteAt(%d, %d words): %v", s[0], len(patch), err)
		}
		copy(want[s[0]:s[1]], patch)
		got, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after WriteAt(%d,%d): word %d = %#x, want %#x", s[0], len(patch), i, got[i], want[i])
			}
		}
	}

	// Bounds: negative offset and past-capacity both wrap ErrOutOfRange.
	if err := v.WriteAt(-1, []uint64{0}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteAt(-1) = %v, want ErrOutOfRange", err)
	}
	if err := v.WriteAt(v.WordCount(), []uint64{0}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteAt(past end) = %v, want ErrOutOfRange", err)
	}
	if err := v.Write(make([]uint64, v.WordCount()+1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("oversized Write = %v, want ErrOutOfRange", err)
	}
}

// TestReadIntoPrefix checks that ReadInto fills exactly min(len(dst), Words)
// words, agrees with Read, and handles the partial-final-row staging.
func TestReadIntoPrefix(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Alloc(2 * int64(sys.RowSizeBits()))
	if err != nil {
		t.Fatal(err)
	}
	wpr := v.WordCount() / v.Rows()
	rng := rand.New(rand.NewSource(13))
	data := make([]uint64, v.WordCount())
	for i := range data {
		data[i] = rng.Uint64()
	}
	if err := v.Write(data, Backdoor()); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{0, 1, wpr - 1, wpr, wpr + 3, v.WordCount(), v.WordCount() + 10} {
		dst := make([]uint64, n)
		got, err := v.ReadInto(dst, Backdoor())
		if err != nil {
			t.Fatalf("ReadInto(len %d): %v", n, err)
		}
		want := n
		if want > v.WordCount() {
			want = v.WordCount()
		}
		if got != want {
			t.Fatalf("ReadInto(len %d) = %d, want %d", n, got, want)
		}
		for i := 0; i < got; i++ {
			if dst[i] != data[i] {
				t.Fatalf("ReadInto(len %d): word %d = %#x, want %#x", n, i, dst[i], data[i])
			}
		}
	}
}

// TestHostIOChannelAccounting pins the cost model of every I/O path: the
// costed direction charges whole touched rows to ChannelBytes, Backdoor
// charges nothing, and ReadInto charges only the rows it needed.
func TestHostIOChannelAccounting(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := int64(sys.RowSizeBits() / 8)
	v, err := sys.Alloc(4 * int64(sys.RowSizeBits()))
	if err != nil {
		t.Fatal(err)
	}
	wpr := v.WordCount() / v.Rows()

	check := func(label string, wantBytes int64, op func() error) {
		t.Helper()
		before := sys.Stats().ChannelBytes
		if err := op(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := sys.Stats().ChannelBytes - before; got != wantBytes {
			t.Fatalf("%s: charged %d channel bytes, want %d", label, got, wantBytes)
		}
	}

	data := make([]uint64, v.WordCount())
	check("backdoor Write", 0, func() error { return v.Write(data, Backdoor()) })
	check("costed Write", 4*rowBytes, func() error { return v.Write(data) })
	check("backdoor Read", 0, func() error { _, err := v.Read(Backdoor()); return err })
	check("costed Read", 4*rowBytes, func() error { _, err := v.Read(); return err })
	// ReadInto of one word needs one row.
	one := make([]uint64, 1)
	check("costed ReadInto 1 word", rowBytes, func() error { _, err := v.ReadInto(one); return err })
	// ReadInto of wpr+1 words needs two rows.
	some := make([]uint64, wpr+1)
	check("costed ReadInto row+1", 2*rowBytes, func() error { _, err := v.ReadInto(some); return err })
	// WriteAt spanning rows 1-2 charges exactly those two rows.
	patch := make([]uint64, wpr)
	check("costed WriteAt 2 rows", 2*rowBytes, func() error { return v.WriteAt(wpr/2, patch) })
	check("backdoor WriteAt", 0, func() error { return v.WriteAt(wpr/2, patch, Backdoor()) })
}

// TestChannelIOEnergy restates EnergyNJ's channel term from DESIGN's
// 40 nJ/KB: a costed write plus a costed read of n rows adds exactly
// 2·n·rowBytes/1024·40 nJ over the device's command energy.
func TestChannelIOEnergy(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	rowBytes := int64(sys.RowSizeBits() / 8)
	v := sys.MustAlloc(n * int64(sys.RowSizeBits()))
	if err := v.Write(make([]uint64, v.WordCount())); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(); err != nil {
		t.Fatal(err)
	}
	device := sys.Config().Energy.DeviceEnergyNJ(sys.Device().Stats())
	want := float64(2*n*rowBytes) / 1024 * 40
	if got := sys.EnergyNJ(); got != device+want {
		t.Errorf("EnergyNJ = %v nJ, want device %v + channel %v nJ", got, device, want)
	}
}

// TestReadIntoAllocFree holds the hot read path to zero allocations per
// call with a reused buffer (the serving layer's data plane depends on it).
func TestReadIntoAllocFree(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Alloc(2*int64(sys.RowSizeBits()) - 64) // partial final row
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Write(make([]uint64, v.WordCount()), Backdoor()); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, v.WordCount())
	if _, err := v.ReadInto(dst, Backdoor()); err != nil { // warm the scratch row
		t.Fatal(err)
	}
	bd := Backdoor()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.ReadInto(dst, bd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("ReadInto allocates %.1f times per call, want 0", allocs)
	}
}
