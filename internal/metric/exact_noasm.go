//go:build !amd64

package metric

// Non-amd64 builds always take the portable widen + diff-tile path.
const useExactAsm = false

// exactBody2x4Asm is never called when useExactAsm is false; this stub
// keeps the common dispatch in multi.go compiling.
func exactBody2x4Asm(q0, q1, r0, r1, r2, r3 *float32, n int, lanes *[2][4][4]float64) {
	panic("metric: exactBody2x4Asm without asm support")
}
