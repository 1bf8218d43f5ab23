//go:build amd64

package metric

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// exactTileBoth runs the exact-grade Tile once through the AVX2 body and
// once through the portable widen + diff tile.
func exactTileBoth(qflat, pflat []float32, dim int) (asm, portable []float64) {
	nq, np := len(qflat)/dim, len(pflat)/dim
	k := NewKernel(Euclidean{})
	asm = make([]float64, nq*np)
	portable = make([]float64, nq*np)
	k.Tile(qflat, nil, pflat, nil, dim, asm, nil)
	useExactAsm = false
	defer func() { useExactAsm = true }()
	k.Tile(qflat, nil, pflat, nil, dim, portable, nil)
	return asm, portable
}

// checkExactTileBits compares both Tile paths against the single-query
// reference Euclidean.OrderingDistances bit for bit.
func checkExactTileBits(t *testing.T, label string, qflat, pflat []float32, dim int) {
	t.Helper()
	nq, np := len(qflat)/dim, len(pflat)/dim
	asm, portable := exactTileBoth(qflat, pflat, dim)
	ref := make([]float64, np)
	for i := 0; i < nq; i++ {
		Euclidean{}.OrderingDistances(qflat[i*dim:(i+1)*dim], pflat, dim, ref)
		for j, want := range ref {
			w := math.Float64bits(want)
			if a := math.Float64bits(asm[i*np+j]); a != w {
				t.Fatalf("%s q%d p%d: asm %v (%#x), reference %v (%#x)", label, i, j, asm[i*np+j], a, want, w)
			}
			if p := math.Float64bits(portable[i*np+j]); p != w {
				t.Fatalf("%s q%d p%d: portable %v (%#x), reference %v (%#x)", label, i, j, portable[i*np+j], p, want, w)
			}
		}
	}
}

// TestExactTileAsmBitIdentical pins the AVX2 exact tile and the portable
// fallback to the scalar reference across dims that exercise every tail
// length, odd and even query counts, every leftover point-column count,
// and magnitudes from tiny to near the float32 range.
func TestExactTileAsmBitIdentical(t *testing.T) {
	if !useExactAsm {
		t.Skip("host has no AVX2; only the portable tile is reachable")
	}
	rng := rand.New(rand.NewSource(412))
	nps := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31, 221}
	for _, dim := range []int{1, 3, 4, 5, 7, 21, 74, 784, 4099} {
		for _, nq := range []int{2, 3, 5, 32} {
			for _, np := range nps {
				for _, scale := range []float32{1e-3, 1, 1e3, 1e19} {
					qflat := randFlat(rng, nq, dim)
					pflat := randFlat(rng, np, dim)
					for i := range qflat {
						qflat[i] *= scale
					}
					for i := range pflat {
						pflat[i] *= scale
					}
					checkExactTileBits(t, fmt.Sprintf("dim=%d nq=%d np=%d scale=%g", dim, nq, np, scale), qflat, pflat, dim)
				}
			}
		}
	}
}

// TestExactTileAsmSpecialValues seeds NaN, ±Inf and subnormal
// coordinates into both the vector body and the scalar tail: propagation
// and gradual underflow must match the reference bit for bit, NaN
// payloads included.
func TestExactTileAsmSpecialValues(t *testing.T) {
	if !useExactAsm {
		t.Skip("host has no AVX2; only the portable tile is reachable")
	}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		0x1p-140, -0x1p-127, math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(413))
	for _, dim := range []int{4, 5, 7, 21, 74} {
		for _, nq := range []int{2, 3, 5} {
			for _, np := range []int{4, 7, 13} {
				for rep := 0; rep < 8; rep++ {
					qflat := randFlat(rng, nq, dim)
					pflat := randFlat(rng, np, dim)
					if rep%2 == 1 {
						// Subnormal-scale rows: differences and squares
						// underflow gradually.
						for i := range qflat {
							qflat[i] *= 0x1p-140
						}
						for i := range pflat {
							pflat[i] *= 0x1p-140
						}
					}
					for s := 0; s < 1+rep; s++ {
						v := specials[rng.Intn(len(specials))]
						if rng.Intn(2) == 0 {
							qflat[rng.Intn(len(qflat))] = v
						} else {
							pflat[rng.Intn(len(pflat))] = v
						}
					}
					checkExactTileBits(t, fmt.Sprintf("dim=%d nq=%d np=%d rep=%d", dim, nq, np, rep), qflat, pflat, dim)
				}
			}
		}
	}
}

// TestExactTileFasterSmoke asserts the AVX2/portable exact-tile
// throughput ratio exceeds 1 at dims 64 and 256. Timing assertion, so it
// only runs when RBC_BENCH_SMOKE=1, like the other kernel smokes.
func TestExactTileFasterSmoke(t *testing.T) {
	if os.Getenv("RBC_BENCH_SMOKE") == "" {
		t.Skip("timing assertion; set RBC_BENCH_SMOKE=1 to run")
	}
	if !useExactAsm {
		t.Skip("host has no AVX2; only the portable tile is reachable")
	}
	k := NewKernel(Euclidean{})
	ts := GetTileScratch()
	defer PutTileScratch(ts)
	for _, dim := range []int{64, 256} {
		tq, tp := TileShape(dim)
		rng := rand.New(rand.NewSource(414))
		qflat := randFlat(rng, tq, dim)
		pflat := randFlat(rng, tp, dim)
		out := make([]float64, tq*tp)
		time20 := func() float64 {
			k.Tile(qflat, nil, pflat, nil, dim, out, ts) // warm
			best := math.Inf(1)
			for rep := 0; rep < 5; rep++ {
				start := time.Now()
				for i := 0; i < 20; i++ {
					k.Tile(qflat, nil, pflat, nil, dim, out, ts)
				}
				if s := time.Since(start).Seconds(); s < best {
					best = s
				}
			}
			return best
		}
		ta := time20()
		useExactAsm = false
		tpo := time20()
		useExactAsm = true
		ratio := tpo / ta
		t.Logf("dim=%d: portable %.3fms avx2 %.3fms ratio %.2fx", dim, tpo*1e3, ta*1e3, ratio)
		if ratio <= 1 {
			t.Fatalf("dim=%d: AVX2 exact tile not faster than portable (ratio %.2f)", dim, ratio)
		}
	}
}
