// Package hotcopy is golden-test input for the hotcopy analyzer. The hot
// set is derived from the declared root tick, exactly as hotalloc derives
// it: helpers tick reaches are hot, cold is a declared cut point, and
// unreached is never visited. big is 72 bytes, over the 64-byte
// threshold; edge is exactly 64 bytes and may be moved freely.
package hotcopy

type big [9]float64

type edge [8]float64

type state struct {
	v    big
	list []big
	ptr  *big
	out  big
}

// table is a package-level variable: binding it to a local copies it.
var table big

// tick is the declared root.
func (s *state) tick(e edge, b *big) {
	local := s.v // want "local local of type hotcopy.big \(72 B\) is copied in hot function hotcopy.state.tick \(hot path: hotcopy.state.tick\); take a pointer"
	_ = local
	fromVar := table // want "local fromVar of type hotcopy.big"
	_ = fromVar
	deref := *s.ptr // want "local deref of type hotcopy.big"
	_ = deref
	elem := s.list[0] // want "local elem of type hotcopy.big"
	_ = elem
	var declared = *b // want "local declared of type hotcopy.big"
	_ = declared
	for _, v := range s.list { // want "range value v of type hotcopy.big"
		_ = v
	}
	for i := range s.list {
		_ = &s.list[i] // ranging over the index copies nothing
	}
	built := big{1, 2} // a composite literal is built in place
	_ = built
	made := s.make() // a call result is built in place
	_ = made
	s.out = s.v    // a store into a field keeps state by design
	*s.ptr = s.out // so does a store through a pointer
	s.list[0] = s.v
	s.byValue(s.v)
	s.byPointer(&s.v)
	_ = s.v.sum()
	_ = s.v.sumPtr()
	_ = e
	s.sanctioned(s.v)
	fn := func(x big) {} // want "parameter x of type hotcopy.big \(72 B\) is copied in hot function hotcopy.state.tick"
	fn(s.v)
	s.cold(s.v)
}

func (s *state) make() big { return big{} } // want "result of type hotcopy.big \(72 B\) is copied in hot function hotcopy.state.make \(hot path: hotcopy.state.tick → hotcopy.state.make\)"

func (s *state) byValue(x big) {} // want "parameter x of type hotcopy.big \(72 B\) is copied in hot function hotcopy.state.byValue"

func (s *state) byPointer(x *big) {}

func (b big) sum() float64 { return b[0] } // want "receiver of type hotcopy.big \(72 B\) is copied in hot function hotcopy.big.sum"

func (b *big) sumPtr() float64 { return b[0] }

// sanctioned is on the ratchet list: its copies are allowed.
func (s *state) sanctioned(x big) {
	y := x
	_ = y
}

// stale is on the ratchet list but copies nothing any more.
func (s *state) stale(x *big) {} // want "hotcopy ratchet entry .*hotcopy:state.stale.* produces no finding"

// cold is a declared cut point: its copies are not checked.
func (s *state) cold(x big) {
	y := x
	_ = y
}

// unreached is not reachable from the root: unchecked.
func (s *state) unreached(x big) big { return x }
