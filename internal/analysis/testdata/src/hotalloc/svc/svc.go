// The hotalloc fixture: //aarc:hotpath roots with every forbidden
// construct, the near-misses that must stay legal (plain struct
// values, &lvalue, pointer-to-interface args), and the cross-package
// flow through dep's fact.
package svc

import "hotalloc/dep"

type entry struct {
	key  string
	hits int
}

type shard struct {
	entries [4]entry
}

type pool struct {
	shards []shard
}

// Fast is the model hot function: arithmetic, field access, taking
// the address of an existing element (no heap escape), and a call to
// an alloc-free dep function.
//
//aarc:hotpath
func Fast(p *pool, i int) int {
	sh := &p.shards[i%len(p.shards)] // &lvalue: legal, no allocation
	sh.entries[0].hits++
	return dep.Clean(sh.entries[0].hits)
}

//aarc:hotpath
func MapLiteral() map[string]int {
	return map[string]int{"a": 1} // want `map literal`
}

//aarc:hotpath
func SliceLiteral() []int {
	return []int{1, 2, 3} // want `slice literal`
}

//aarc:hotpath
func Closure(x int) func() int {
	return func() int { return x } // want `closure`
}

//aarc:hotpath
func Make() []int {
	return make([]int, 8) // want `make`
}

//aarc:hotpath
func New() *int {
	return new(int) // want `new`
}

//aarc:hotpath
func Append(s []int, v int) []int {
	return append(s, v) // want `append`
}

//aarc:hotpath
func EscapingComposite() *entry {
	return &entry{key: "x"} // want `composite literal`
}

//aarc:hotpath
func StringConv(b []byte) string {
	return string(b) // want `string conversion`
}

// ValueComposite is the near-miss: a plain struct value stays on the
// stack.
//
//aarc:hotpath
func ValueComposite() entry {
	return entry{key: "x"}
}

type iface interface{ m() }

type boxed struct{ v int }

func (boxed) m() {}

type ptrImpl struct{ v int }

func (*ptrImpl) m() {}

func take(i iface) { _ = i }

//aarc:hotpath
func Boxing() {
	take(boxed{v: 1}) // want `interface boxing`
}

// PointerNoBox passes a pointer: the interface holds the existing
// pointer, nothing is copied to the heap.
//
//aarc:hotpath
func PointerNoBox(p *ptrImpl) {
	take(p)
}

// Transitive is clean itself; the violation sits in the helper it
// calls and is reported there, attributed to this root.
//
//aarc:hotpath
func Transitive(x int) int {
	return helper(x)
}

func helper(x int) int {
	sink = new(int) // want `new`
	return x
}

var sink *int

// CrossPackage calls dep.Dirty, whose allocation arrives via the fact
// file and is reported at this call site.
//
//aarc:hotpath
func CrossPackage() *int {
	return dep.Dirty() // want `call to dep.Dirty which allocates`
}

// CrossPackageTransitive must see Dirty through DirtyTransitive's
// call list.
//
//aarc:hotpath
func CrossPackageTransitive() *int {
	return dep.DirtyTransitive() // want `call to dep.DirtyTransitive which allocates`
}

// CrossPackageClean stays silent.
//
//aarc:hotpath
func CrossPackageClean(x int) int {
	return dep.Clean(x)
}

// cold is not marked and never called from a root: allocate freely.
func cold() []int {
	return make([]int, 64)
}

// Waived allocates deliberately with a reviewed reason.
//
//aarc:hotpath
func Waived() []int {
	//aarc:coldalloc one-time warm-up buffer, amortized to zero
	return make([]int, 4)
}

// EmptyReasonWaiver: a waiver without a reason is a finding.
//
//aarc:hotpath
func EmptyReasonWaiver() []int {
	//aarc:coldalloc
	return make([]int, 4) // want `needs a reason`
}

// GenericMethod calls an allocating method of a generic type declared
// in dep, through its instantiation at string.
//
//aarc:hotpath
func GenericMethod(c *dep.Cache[string]) *string {
	return c.Get("k") // want `call to dep.\(Cache\).Get which allocates`
}
