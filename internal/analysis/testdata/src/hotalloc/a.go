// Package hotalloc is the fixture for the hotalloc analyzer: a root
// function annotated //vulcan:hotpath, helpers reached through the
// intra-package call graph, waived findings, and the constructs that
// must stay legal (pooled appends, constant folding, panic paths).
package hotalloc

import (
	"errors"
	"fmt"
)

type stats struct {
	buf   []int
	count int
}

type node struct {
	next *node
	val  int
}

// step is the annotated hot root.
//
//vulcan:hotpath
func (s *stats) step(vals []int, m map[int]int) {
	s.count++
	s.buf = append(s.buf, s.count) // append into a pooled field: legal
	vals = append(vals, 1)         // append into a caller-owned parameter: legal
	local := []int{1, 2, 3}        // want `slice literal allocates in //vulcan:hotpath function step`
	_ = local
	lm := map[int]int{} // want `map literal allocates`
	_ = lm
	_ = make([]byte, 8) // want `make allocates`
	_ = new(node)       // want `new allocates`
	n := &node{val: 1}  // want `composite literal escapes to the heap`
	_ = n
	var fresh []int
	fresh = append(fresh, s.count) // want `append to function-local slice fresh grows on the heap`
	_ = fresh
	for k := range m { // want `range over a map allocates its iterator`
		_ = k
	}
	helper(s)
	s.flush()
	if s.count < 0 {
		panic(fmt.Sprintf("impossible count %d", s.count)) // feeding a panic: exempt
	}
}

// helper carries no annotation but is reachable from the root, so it
// inherits the contract.
func helper(s *stats) {
	msg := fmt.Sprintf("count=%d", s.count) // want `fmt\.Sprintf boxes its operands .* reachable from //vulcan:hotpath root step`
	_ = msg
	err := errors.New("boom") // want `errors\.New allocates a new error value`
	_ = err
	var sink any
	sink = any(s.count) // want `conversion to interface any boxes the value`
	_ = sink
	_ = error(nil) // conversion of untyped nil: legal
	deeper()
	var b box[node]
	_ = b.grow()
}

// box is a generic type: a call through its instantiation reaches the
// declared method.
type box[T any] struct{}

func (b *box[T]) grow() *T {
	return new(T) // want `new allocates in grow, reachable from //vulcan:hotpath root step`
}

// deeper is two call-graph hops from the root.
func deeper() *node {
	return &node{} // want `composite literal escapes to the heap in deeper, reachable from //vulcan:hotpath root step`
}

// flush is reached through a method-call edge.
func (s *stats) flush() {
	s.buf = s.buf[:0]
	tmp := make([]int, 0, 4) // want `make allocates in flush, reachable from //vulcan:hotpath root step`
	_ = tmp
}

// waived shows the escape hatch: a reasoned waiver silences the
// finding, a reasonless one converts into its own finding.
//
//vulcan:hotpath
func waived() []int {
	out := make([]int, 8) //vulcan:allowalloc one-time result buffer, caller retains it
	//vulcan:allowalloc
	_ = make([]int, 8) // want `make allocates .* \(//vulcan:allowalloc needs a reason\)`
	return out
}

// concat pins the string rules, including constant folding.
//
//vulcan:hotpath
func concat(a, b string) string {
	const pre = "x" + "y" // constant-folded: legal
	s := a + b            // want `string concatenation allocates`
	s += pre              // want `string concatenation allocates`
	return s
}

// closures pins capture detection.
//
//vulcan:hotpath
func closures(base int) int {
	id := func(x int) int { return x }         // no captures: legal
	add := func(x int) int { return x + base } // want `func literal captures base and allocates a closure`
	return id(add(1))
}

// cold is not annotated and unreachable from any root: the same
// constructs are legal here.
func cold() {
	_ = make([]int, 8)
	_ = fmt.Sprintf("cold %d", 1)
}
