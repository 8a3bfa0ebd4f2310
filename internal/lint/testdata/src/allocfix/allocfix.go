// Package allocfix exercises the alloccheck analyzer: the compiler's
// escape sites (escaping composites/new/make, closures, variables moved to
// heap), value-semantics copies (clean), un-hinted append growth in loops,
// interface boxing, string conversions, always-allocating calls,
// interprocedural summaries, //lint:allocfree roots, and //lint:alloc
// suppression with mandatory justification. The hot-root table also names
// a function and a method the package does not declare.
package allocfix // want `hot root allocfix.removedRoot names no function declared in allocfix` `hot root allocfix.node.gone names no function declared in allocfix`

import "fmt"

type node struct {
	id   int
	next *node
}

type box struct {
	sink  *node
	items []int
	any   interface{}
	fn    func(int)
}

var global *node

// coldPath is not a hot root: everything here is allowed.
func coldPath() *node {
	n := &node{id: 1}
	global = n
	return n
}

// ---- escapes ----

//lint:allocfree
func hotFieldStore(b *box) {
	n := &node{id: 1} // want `heap allocation in hot path: &node\{\.\.\.\} escapes to heap`
	b.sink = n
}

//lint:allocfree
func hotReturnPtr() *node {
	return &node{id: 2} // want `heap allocation in hot path: &node\{\.\.\.\} escapes to heap`
}

//lint:allocfree
func hotGlobalStore() {
	global = &node{id: 3} // want `heap allocation in hot path: &node\{\.\.\.\} escapes to heap`
}

//lint:allocfree
func hotNewEscape(b *box) {
	p := new(node) // want `heap allocation in hot path: new\(node\) escapes to heap`
	b.sink = p
}

//lint:allocfree
func hotMakeEscape(b *box) {
	s := make([]int, 8) // want `heap allocation in hot path: make\(\[\]int, 8\) escapes to heap`
	b.items = s
}

//lint:allocfree
func hotClosureCapture() func() int {
	s := make([]int, 4)                 // want `heap allocation in hot path: make\(\[\]int, 4\) escapes to heap`
	return func() int { return len(s) } // want `heap allocation in hot path: func literal escapes to heap`
}

//lint:allocfree
func hotAddrOfValue(b *box) {
	v := node{id: 4} // want `heap allocation in hot path: moved to heap: v`
	b.sink = &v
}

// ---- value semantics: copies, not allocations ----

//lint:allocfree
func cleanValueReturn() node {
	v := node{id: 5}
	return v
}

//lint:allocfree
func cleanValueStore(dst []node) {
	dst[0] = node{id: 6}
}

//lint:allocfree
func cleanLocalScratch() int {
	v := node{id: 7}
	v.id++
	return v.id
}

// ---- maps and channels ----

//lint:allocfree
func hotMakeMap() {
	m := make(map[int]int) // want `heap allocation in hot path: make of a map always allocates`
	m[1] = 2
}

//lint:allocfree
func hotMapLiteral() int {
	weights := map[string]int{"a": 1} // want `heap allocation in hot path: map literal always allocates`
	return weights["a"]
}

// ---- append growth ----

//lint:allocfree
func hotAppendNoHint(xs []int) int {
	buf := []int{} // want `append in a loop grows buf, which was created without a capacity hint`
	for _, x := range xs {
		buf = append(buf, x)
	}
	return len(buf)
}

// cleanAppendHinted never grows buf; creating it with a size known only
// at run time still allocates once per call.
//
//lint:allocfree
func cleanAppendHinted(xs []int) int {
	buf := make([]int, 0, len(xs)) // want `heap allocation in hot path: make\(\[\]int, 0, len\(xs\)\) escapes to heap`
	for _, x := range xs {
		buf = append(buf, x)
	}
	return len(buf)
}

//lint:allocfree
func cleanAppendOnce(xs []int) int {
	// A one-shot append outside any loop amortizes; not flagged. (The
	// slice must not escape — returning it would be an allocation.)
	buf := make([]int, 0)
	buf = append(buf, len(xs))
	return len(buf)
}

type ring struct {
	retained []int
}

//lint:allocfree
func (r *ring) cleanAppendField(xs []int) {
	// Retained-buffer discipline: appends to fields amortize to zero once
	// warm, exactly like the simulator's drain queues.
	r.retained = r.retained[:0]
	for _, x := range xs {
		r.retained = append(r.retained, x)
	}
}

// ---- interface boxing ----

func consume(v interface{}) int { return 0 }

func consumeVariadic(vs ...interface{}) int { return len(vs) }

//lint:allocfree
func hotBoxArg(n int) int {
	return consume(n) // want `interface boxing in hot path: int value n converted to interface\{\}`
}

//lint:allocfree
func hotBoxAssign(b *box, n int) {
	b.any = n // want `interface boxing in hot path: int value n converted to interface\{\}`
}

//lint:allocfree
func hotBoxConvert(n int) interface{} {
	return interface{}(n) // want `interface boxing in hot path: int value n converted to interface\{\}`
}

//lint:allocfree
func cleanBoxPointer(b *box, p *node) int {
	// Pointers fit the interface word: no allocation.
	b.any = p
	return consume(p)
}

//lint:allocfree
func cleanBoxConst() int {
	// Constants fold to static interface cells.
	return consume(42)
}

//lint:allocfree
func cleanEllipsisForward(vs ...interface{}) int {
	// Forwarding an existing []interface{} boxes nothing new.
	return consumeVariadic(vs...)
}

// ---- string conversions ----

//lint:allocfree
func hotBytesToString(b []byte) string {
	return string(b) // want `string conversion allocates in hot path: string\(b\) copies`
}

//lint:allocfree
func hotStringToBytes(s string) []byte {
	return []byte(s) // want `string conversion allocates in hot path: \[\]byte\(s\) copies`
}

// ---- always-allocating calls ----

//lint:allocfree
func hotSprintf(n int) string {
	return fmt.Sprintf("n=%d", n) // want `call to fmt\.Sprintf allocates in hot path`
}

// ---- interprocedural summaries ----

func escHelper(b *box) {
	b.sink = &node{id: 8}
}

func cleanHelper(b *box) int {
	v := node{id: 9}
	return v.id + len(b.items)
}

func chainHelper(b *box) {
	escHelper(b)
}

//lint:allocfree
func hotCallsEscHelper(b *box) {
	escHelper(b) // want `call to escHelper allocates in hot path`
}

//lint:allocfree
func hotCallsChain(b *box) {
	chainHelper(b) // want `call to chainHelper allocates in hot path`
}

//lint:allocfree
func cleanCallsCleanHelper(b *box) int {
	return cleanHelper(b)
}

// suppressedHelper's allocation carries a justification, so its summary
// stays alloc-free and hot callers are not tainted.
func suppressedHelper(b *box) {
	b.sink = &node{id: 10} //lint:alloc one-time window-end report, measured cold
}

//lint:allocfree
func cleanCallsSuppressedHelper(b *box) {
	suppressedHelper(b)
}

// ---- suppression ----

//lint:allocfree
func suppressedDirect(b *box) {
	b.sink = &node{id: 11} //lint:alloc arena refill, amortized over the window
}

//lint:allocfree
func suppressedViaIgnore(b *box) {
	b.sink = &node{id: 12} //lint:ignore alloccheck startup-only wiring
}

//lint:allocfree
func unjustifiedSuppression(b *box) {
	//lint:alloc
	b.sink = &node{id: 13} // want `suppression directive //lint:alloc needs a justification`
}

// tableHot is checked through the fixture config's HotFuncs table rather
// than an annotation.
func tableHot() *node {
	return &node{id: 14} // want `heap allocation in hot path: &node\{\.\.\.\} escapes to heap`
}

// ---- escapes a model of the compiler missed ----

// keep stores its callback, the way a worker pool hands work to threads.
func (b *box) keep(f func(int)) { b.fn = f }

//lint:allocfree
func hotClosureStored(b *box, n int) {
	b.keep(func(i int) { b.items[i] = n }) // want `heap allocation in hot path: func literal escapes to heap`
}

//lint:allocfree
func hotDeclaredAddr(b *box) {
	var v node // want `heap allocation in hot path: moved to heap: v`
	b.sink = &v
}
