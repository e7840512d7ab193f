package ambit

import "ambit/internal/controller"

// Request-scoped execution tagging: the serving layer executes every tenant
// operation through a Tagged view, so the (tenant, request) identity rides
// with the operation — op spans and Chrome-trace JSONL carry the namespace
// and request id, and every ledger commit of the operation (rows, bank busy
// time, fault injections, TMR outcomes) lands in the tenant's Stats beside
// the System's (System.TagStats; the metrics view renders both).  Untagged
// library calls (the plain System methods) execute with the zero Tag, which
// annotates nothing and writes only the System's Stats.

// Tag identifies the tenant and request an operation executes on behalf of.
// The zero Tag means "untagged" and is what every plain System method uses.
type Tag struct {
	// NS is the tenant namespace name.
	NS string
	// Req is the request id (the service's X-Request-ID).
	Req string
}

// Tagged is a request-scoped view of a System: the same operations, executed
// with a Tag attached.  It is a value — create one per request with
// System.Tagged; there is nothing to release.
type Tagged struct {
	s   *System
	tag Tag
}

// Tagged returns a view of the System that executes operations under tag.
func (s *System) Tagged(tag Tag) Tagged { return Tagged{s: s, tag: tag} }

// System returns the underlying System.
func (t Tagged) System() *System { return t.s }

// Tag returns the view's tag.
func (t Tagged) Tag() Tag { return t.tag }

// Apply computes dst = op(a[, b]) under the view's tag.
func (t Tagged) Apply(op controller.Op, dst, a, b *Bitvector) error {
	return t.s.applyTagged(t.tag, op, dst, a, b)
}

// Copy copies src into dst (RowClone) under the view's tag.
func (t Tagged) Copy(dst, src *Bitvector) error { return t.s.copyTagged(t.tag, dst, src) }

// Fill sets every bit of v under the view's tag.
func (t Tagged) Fill(v *Bitvector, bit bool) error { return t.s.fillTagged(t.tag, v, bit) }

// Popcount counts v's set bits under the view's tag.
func (t Tagged) Popcount(v *Bitvector) (int64, error) { return t.s.popcountTagged(t.tag, v) }

// Maj computes dst = MAJ(srcs...) under the view's tag.
func (t Tagged) Maj(dst *Bitvector, srcs ...*Bitvector) error {
	return t.s.majTagged(t.tag, dst, srcs)
}

// RunFunc executes dsts... = f(srcs...) under the view's tag.  f must have
// been compiled on the view's System (ErrForeignSystem otherwise).
func (t Tagged) RunFunc(f *Func, dsts []*Bitvector, srcs ...*Bitvector) error {
	return t.s.runMultiTagged(t.tag, f, dsts, srcs)
}
