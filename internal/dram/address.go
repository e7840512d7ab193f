package dram

import (
	"fmt"
	"strconv"
)

// Group identifies which of the three row-address groups of Section 5.1 an
// address belongs to.
type Group uint8

const (
	// GroupD is the data group: ordinary rows exposed to software.
	GroupD Group = iota
	// GroupB is the bitwise group: the 16 reserved addresses B0..B15 that
	// activate the designated rows T0..T3 and the DCC wordlines (Table 1).
	GroupB
	// GroupC is the control group: C0 (all zeros) and C1 (all ones).
	GroupC
)

// String implements fmt.Stringer.
func (g Group) String() string {
	switch g {
	case GroupD:
		return "D"
	case GroupB:
		return "B"
	case GroupC:
		return "C"
	}
	return fmt.Sprintf("Group(%d)", uint8(g))
}

// RowAddr is a row address within one subarray, as seen by the memory
// controller.  It is the unit the ACTIVATE command carries.
type RowAddr struct {
	Group Group
	// Index is the address within its group: D0..D1005, B0..B15, or C0..C1.
	Index int
}

// Convenience constructors mirroring the paper's address names.

// D returns the data-group address Di.
func D(i int) RowAddr { return RowAddr{Group: GroupD, Index: i} }

// B returns the bitwise-group address Bi (Table 1).
func B(i int) RowAddr { return RowAddr{Group: GroupB, Index: i} }

// C returns the control-group address Ci.
func C(i int) RowAddr { return RowAddr{Group: GroupC, Index: i} }

// String renders the address in the paper's notation (D3, B12, C0, ...).
// Traced command trains render three operand addresses per row, so this
// avoids fmt on the common groups.
func (a RowAddr) String() string { return a.Group.String() + strconv.Itoa(a.Index) }

// Validate checks the address against a geometry.
func (a RowAddr) Validate(g Geometry) error {
	switch a.Group {
	case GroupD:
		if a.Index < 0 || a.Index >= g.DataRows() {
			return fmt.Errorf("dram: %v out of range [0,%d)", a, g.DataRows())
		}
	case GroupB:
		if a.Index < 0 || a.Index >= BGroupAddresses {
			return fmt.Errorf("dram: %v out of range [0,%d)", a, BGroupAddresses)
		}
	case GroupC:
		if a.Index < 0 || a.Index >= CGroupAddresses {
			return fmt.Errorf("dram: %v out of range [0,%d)", a, CGroupAddresses)
		}
	default:
		return fmt.Errorf("dram: invalid address group %d", a.Group)
	}
	return nil
}

// Wordline identifies one physical wordline inside a subarray.  The B-group
// row decoder (Section 5.3) maps each B-group address to a *set* of
// wordlines; all other addresses map to exactly one.
type Wordline struct {
	Kind WordlineKind
	// Index selects among wordlines of the same kind: the data row number
	// for WLData, 0..3 for WLT, and 0..1 for the DCC wordlines and WLC.
	Index int
}

// WordlineKind enumerates the physical wordline kinds in an Ambit subarray.
type WordlineKind uint8

const (
	// WLData drives an ordinary data row.
	WLData WordlineKind = iota
	// WLT drives one of the designated rows T0..T3 used for TRAs
	// (Section 3.3).
	WLT
	// WLDCCData is the d-wordline of a dual-contact cell row: it connects
	// the DCC capacitor to the bitline (Section 4).
	WLDCCData
	// WLDCCNeg is the n-wordline of a dual-contact cell row: it connects
	// the DCC capacitor to bitline-bar, so the cell captures / presents
	// the negated sense-amplifier value (Section 4).
	WLDCCNeg
	// WLC drives one of the pre-initialized control rows C0/C1
	// (Section 3.4).
	WLC
)

// String implements fmt.Stringer using the paper's names.
func (w Wordline) String() string {
	switch w.Kind {
	case WLData:
		return fmt.Sprintf("data[%d]", w.Index)
	case WLT:
		return fmt.Sprintf("T%d", w.Index)
	case WLDCCData:
		return fmt.Sprintf("DCC%d", w.Index)
	case WLDCCNeg:
		return fmt.Sprintf("~DCC%d", w.Index)
	case WLC:
		return fmt.Sprintf("C%d", w.Index)
	}
	return fmt.Sprintf("wl(%d,%d)", w.Kind, w.Index)
}

// Negated reports whether a cell connected through this wordline sits on the
// bitline-bar side of the sense amplifier.
func (w Wordline) Negated() bool { return w.Kind == WLDCCNeg }

// bGroupMap is Table 1 of the paper: the mapping of the 16 B-group addresses
// to the wordlines they raise.
//
//	B0..B7  activate a single wordline each,
//	B8..B11 activate two wordlines (used as AAP destinations, e.g. to
//	        simultaneously negate and copy a source row for xor/xnor),
//	B12..B15 activate three wordlines (triple-row activations).
var bGroupMap = [BGroupAddresses][]Wordline{
	0:  {{WLT, 0}},                           // B0  -> T0
	1:  {{WLT, 1}},                           // B1  -> T1
	2:  {{WLT, 2}},                           // B2  -> T2
	3:  {{WLT, 3}},                           // B3  -> T3
	4:  {{WLDCCData, 0}},                     // B4  -> DCC0
	5:  {{WLDCCNeg, 0}},                      // B5  -> ~DCC0
	6:  {{WLDCCData, 1}},                     // B6  -> DCC1
	7:  {{WLDCCNeg, 1}},                      // B7  -> ~DCC1
	8:  {{WLDCCNeg, 0}, {WLT, 0}},            // B8  -> ~DCC0, T0
	9:  {{WLDCCNeg, 1}, {WLT, 1}},            // B9  -> ~DCC1, T1
	10: {{WLT, 2}, {WLT, 3}},                 // B10 -> T2, T3
	11: {{WLT, 0}, {WLT, 3}},                 // B11 -> T0, T3
	12: {{WLT, 0}, {WLT, 1}, {WLT, 2}},       // B12 -> T0, T1, T2
	13: {{WLT, 1}, {WLT, 2}, {WLT, 3}},       // B13 -> T1, T2, T3
	14: {{WLDCCData, 0}, {WLT, 1}, {WLT, 2}}, // B14 -> DCC0, T1, T2
	15: {{WLDCCData, 1}, {WLT, 0}, {WLT, 3}}, // B15 -> DCC1, T0, T3
}

// WordlineCount returns how many wordlines an address raises — Table 1 fan-out
// for B-group addresses, one for everything else.  The address is assumed
// structurally valid (B-group index in range); geometry-dependent range checks
// are the caller's concern.
func WordlineCount(a RowAddr) int {
	if a.Group == GroupB {
		return len(bGroupMap[a.Index])
	}
	return 1
}

// DecodeRowAddr implements the split row decoder of Section 5.3: it maps a
// row address to the set of wordlines it raises.  B-group addresses are
// decoded by the small B-group decoder (Table 1); C- and D-group addresses by
// the regular decoder (one wordline each).
//
// The returned slice must not be modified by the caller.
func DecodeRowAddr(a RowAddr, g Geometry) ([]Wordline, error) {
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	switch a.Group {
	case GroupB:
		return bGroupMap[a.Index], nil
	case GroupC:
		return []Wordline{{Kind: WLC, Index: a.Index}}, nil
	default:
		return []Wordline{{Kind: WLData, Index: a.Index}}, nil
	}
}

// AppendWordlines appends the wordline set `a` raises to buf and returns the
// extended slice.  It is DecodeRowAddr for hot paths: with a caller-owned
// buffer of capacity >= 3 (the largest B-group set) the decode is
// allocation-free for every address group, where DecodeRowAddr allocates a
// fresh single-element slice for C- and D-group addresses.
func AppendWordlines(buf []Wordline, a RowAddr, g Geometry) ([]Wordline, error) {
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	switch a.Group {
	case GroupB:
		return append(buf, bGroupMap[a.Index]...), nil
	case GroupC:
		return append(buf, Wordline{Kind: WLC, Index: a.Index}), nil
	default:
		return append(buf, Wordline{Kind: WLData, Index: a.Index}), nil
	}
}

// BGroupWordlines returns the Table-1 wordline set of address Bi without
// copying; the caller must not modify it.  i must be in [0, BGroupAddresses).
func BGroupWordlines(i int) []Wordline { return bGroupMap[i] }

// BGroupTable returns a copy of the full Table-1 mapping, keyed by B-group
// address index.  Used by the experiment harness to print Table 1.
func BGroupTable() [][]Wordline {
	out := make([][]Wordline, BGroupAddresses)
	for i, wls := range bGroupMap {
		out[i] = append([]Wordline(nil), wls...)
	}
	return out
}

// PhysAddr is a fully qualified row location inside the device.
type PhysAddr struct {
	Bank     int
	Subarray int
	Row      RowAddr
}

// String renders the location as bank/subarray/row.
func (p PhysAddr) String() string {
	return fmt.Sprintf("bank%d/sub%d/%v", p.Bank, p.Subarray, p.Row)
}

// Validate checks the physical address against a geometry.
func (p PhysAddr) Validate(g Geometry) error {
	if p.Bank < 0 || p.Bank >= g.Banks {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", p.Bank, g.Banks)
	}
	if p.Subarray < 0 || p.Subarray >= g.SubarraysPerBank {
		return fmt.Errorf("dram: subarray %d out of range [0,%d)", p.Subarray, g.SubarraysPerBank)
	}
	return p.Row.Validate(g)
}
