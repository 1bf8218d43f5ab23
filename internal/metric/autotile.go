package metric

import (
	"os"
	"strconv"
	"sync"
	"time"
)

// Machine-adaptive tile shapes.
//
// The tiled search loops size their tiles against a per-tile footprint
// budget (in float32 elements): larger budgets amortize loop overhead and
// widen the point tile, smaller budgets keep the working set inside
// faster cache levels. The right budget is a property of the host's cache
// hierarchy, not of the dataset, so it is resolved once per process:
//
//  1. If RBC_TILE_BUDGET is set to a valid integer, that budget is used
//     verbatim (clamped to [minTileBudget, maxTileBudget]). This is the
//     reproducibility hook — CI pins it so bench baselines compare
//     like-for-like across runs and shape changes never masquerade as
//     kernel regressions.
//  2. Otherwise a micro-measurement sweeps tileBudgetGrid with the
//     exact-grade Kernel.Tile on synthetic data (~a few ms total) and
//     keeps the fastest budget, in the spirit of core.AutoTuneExact.
//
// The resolved budget is cached for the life of the process. Tests and
// harnesses can override it with SetTileBudget; TileBudget reports the
// active value and its provenance so bench artifacts can record the
// shape that produced them.
//
// Changing the tile shape can never change results: every kernel grade is
// tile-shape invariant by construction (see the shape-invariance tests in
// chunked_test.go and blocked_test.go), and search statistics count
// admissible pairs, not tiles.

const (
	// defaultTileBudget is the historical fixed budget (16K float32
	// elements ≈ 64 KiB widened), used when measurement is disabled and
	// as the CI pin.
	defaultTileBudget = 16384

	// minTileBudget / maxTileBudget clamp env overrides and measurement
	// results to shapes the tiled loops handle sensibly.
	minTileBudget = 1024
	maxTileBudget = 1 << 18

	// TileBudgetEnv names the environment variable that pins the tile
	// budget for reproducible runs (CI, bench baselines).
	TileBudgetEnv = "RBC_TILE_BUDGET"
)

// tileBudgetGrid is the shape grid swept by the once-per-process
// micro-measurement. Powers of two around the historical default.
var tileBudgetGrid = []int{8192, 16384, 32768, 65536}

var autoTile struct {
	once   sync.Once
	mu     sync.Mutex
	budget int
	source string // "env" | "env-invalid" | "measured" | "param"
}

// AutoTileShape returns the query/point tile shape for dimension dim
// using the process-wide resolved tile budget (measured once, or pinned
// via RBC_TILE_BUDGET / SetTileBudget). Search loops should call this
// instead of TileShape.
func AutoTileShape(dim int) (tq, tp int) {
	return shapeForBudget(tileBudget(), dim)
}

// TileBudget reports the resolved per-tile budget and how it was chosen:
// "env" (valid RBC_TILE_BUDGET), "env-invalid" (RBC_TILE_BUDGET set but
// unparsable — default used), "measured" (micro-measurement), or "param"
// (SetTileBudget). Bench tooling records this in its JSON artifact.
func TileBudget() (budget int, source string) {
	b := tileBudget()
	autoTile.mu.Lock()
	defer autoTile.mu.Unlock()
	return b, autoTile.source
}

// SetTileBudget pins the tile budget for the rest of the process
// (clamped to [minTileBudget, maxTileBudget]), overriding any earlier
// measurement or env resolution. Intended for tests and harness pins.
func SetTileBudget(budget int) {
	autoTile.once.Do(func() {}) // forestall a racing resolve
	autoTile.mu.Lock()
	defer autoTile.mu.Unlock()
	autoTile.budget = clampTileBudget(budget)
	autoTile.source = "param"
}

func tileBudget() int {
	autoTile.once.Do(resolveTileBudget)
	autoTile.mu.Lock()
	defer autoTile.mu.Unlock()
	if autoTile.budget == 0 {
		// once.Do was forestalled by SetTileBudget racing resolution;
		// fall back to the default rather than measure under the lock.
		autoTile.budget = defaultTileBudget
		autoTile.source = "param"
	}
	return autoTile.budget
}

func resolveTileBudget() {
	budget, source := defaultTileBudget, "measured"
	if v, ok := os.LookupEnv(TileBudgetEnv); ok {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			budget, source = clampTileBudget(n), "env"
		} else {
			budget, source = defaultTileBudget, "env-invalid"
		}
	} else {
		budget = clampTileBudget(measureTileBudget())
	}
	autoTile.mu.Lock()
	defer autoTile.mu.Unlock()
	if autoTile.budget != 0 {
		return // SetTileBudget won the race
	}
	autoTile.budget, autoTile.source = budget, source
}

func clampTileBudget(b int) int {
	if b < minTileBudget {
		return minTileBudget
	}
	if b > maxTileBudget {
		return maxTileBudget
	}
	return b
}

// measureTileBudget times a consumer-style tiled sweep of the exact-grade
// Kernel.Tile — the kernel the searches run — over synthetic data for
// each candidate budget and returns the fastest. Runs once per process
// (~a few ms); min-of-reps guards against scheduler noise.
func measureTileBudget() int {
	const (
		dim  = 64
		nq   = 64
		np   = 512
		reps = 3
	)
	qflat := syntheticF32(nq * dim)
	pflat := syntheticF32(np * dim)
	k := NewKernel(Euclidean{})
	ts := GetTileScratch()
	defer PutTileScratch(ts)
	var out []float64

	best, bestNS := defaultTileBudget, int64(1<<62)
	for _, budget := range tileBudgetGrid {
		tq, tp := shapeForBudget(budget, dim)
		out = growF64(out, tq*tp)
		minNS := int64(1 << 62)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for q0 := 0; q0 < nq; q0 += tq {
				q1 := min(q0+tq, nq)
				for p0 := 0; p0 < np; p0 += tp {
					p1 := min(p0+tp, np)
					k.Tile(qflat[q0*dim:q1*dim], nil, pflat[p0*dim:p1*dim], nil, dim, out[:(q1-q0)*(p1-p0)], ts)
				}
			}
			if ns := time.Since(start).Nanoseconds(); ns < minNS {
				minNS = ns
			}
		}
		if minNS < bestNS {
			best, bestNS = budget, minNS
		}
	}
	return best
}

// syntheticF32 fills a deterministic pseudo-random float32 slice in
// (-1, 1) via xorshift, avoiding a math/rand dependency in non-test code.
func syntheticF32(n int) []float32 {
	out := make([]float32, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = float32(int32(state>>33)) / float32(1<<31)
	}
	return out
}
