package main

import (
	"math"
	"math/rand"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

var (
	euclid   = metric.Euclidean{}
	exactKer = metric.NewKernel(euclid)
)

// bruteKNN is the answer oracle: exact-grade tiled brute force. It uses
// the tiled SearchKWith rather than SearchOne, whose par.TreeReduce
// reduction races on hosts with two or more cores.
func bruteKNN(queries, db *vec.Dataset, k int) [][]par.Neighbor {
	return bruteforce.SearchKWith(queries, db, k, exactKer, nil)
}

// tieRuleMatch applies the repository's ordering-tie rule to one answer:
// distances equal the reference bit for bit, position by position; no
// id repeats; and an id that differs from the reference's at its
// position lies at exactly that position's distance. row returns the
// point of an id, or nil for an id that is not a live row.
func tieRuleMatch(got, want []par.Neighbor, q []float32, row func(id int) []float32) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[int]bool, len(got))
	var ord [1]float64
	for p := range want {
		if math.Float64bits(got[p].Dist) != math.Float64bits(want[p].Dist) || seen[got[p].ID] {
			return false
		}
		seen[got[p].ID] = true
		if got[p].ID == want[p].ID {
			continue
		}
		r := row(got[p].ID)
		if r == nil {
			return false
		}
		exactKer.Ordering(q, r, len(q), ord[:])
		if exactKer.ToDistance(ord[0]) != got[p].Dist {
			return false
		}
	}
	return true
}

// identical reports whether two answers agree bit for bit: same ids,
// same distance bits, same order.
func identical(a, b []par.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// structureSeed fixes the generated database and indexSeed the index's
// representative draw, so every run indexes the same rows the same way
// and runs differ in their queries and written rows alone. Letting the
// seed redraw the database moved the work per query, and with it the
// batch-robot throughput, by ±20% between seeds.
const structureSeed, indexSeed = 1, 1

// heldOut generates the n database rows and, from the same generator
// call, a reservoir four times the size of the extra parts; seed picks
// each part's rows from the reservoir at random. Each part owns its
// buffer, so appending to the database cannot overwrite held-out rows.
func heldOut(gen func(n int, seed int64) *vec.Dataset, n int, seed int64, extra ...int) (*vec.Dataset, []*vec.Dataset) {
	total := 0
	for _, e := range extra {
		total += e
	}
	all := gen(n+4*total, structureSeed)
	pick := rand.New(rand.NewSource(seed)).Perm(4 * total)
	parts := make([]*vec.Dataset, len(extra))
	lo := 0
	for i, e := range extra {
		ids := make([]int, e)
		for j := range ids {
			ids[j] = n + pick[lo+j]
		}
		parts[i] = rowsOf(all, ids)
		lo += e
	}
	return vec.FromFlat(append([]float32(nil), all.Data[:n*all.Dim]...), all.Dim), parts
}

// rowsOf gathers the rows ids into a new dataset.
func rowsOf(db *vec.Dataset, ids []int) *vec.Dataset {
	out := vec.New(db.Dim, len(ids))
	for _, id := range ids {
		out.Append(db.Row(id))
	}
	return out
}

// block is one query block of the pool with the rows of it whose answers
// are checked against the oracle.
type block struct {
	queries *vec.Dataset
	sample  []int            // row indices checked in every answer to this block
	want    [][]par.Neighbor // oracle answers for sample
	index   map[int]int      // row index → position in sample
}

// makeBlocks cuts the pool into blocks of size rows and picks checks rows
// of each, seeded, whose oracle answers are computed once here.
func makeBlocks(pool, db *vec.Dataset, size, checks, k int, rng *rand.Rand) []*block {
	var blocks []*block
	var sampled []int
	for lo := 0; lo+size <= pool.N(); lo += size {
		b := &block{queries: vec.FromFlat(pool.Data[lo*pool.Dim:(lo+size)*pool.Dim], pool.Dim), index: map[int]int{}}
		for _, r := range rng.Perm(size)[:min(checks, size)] {
			b.index[r] = len(b.sample)
			b.sample = append(b.sample, r)
			sampled = append(sampled, lo+r)
		}
		blocks = append(blocks, b)
	}
	want := bruteKNN(rowsOf(pool, sampled), db, k)
	for _, b := range blocks {
		b.want, want = want[:len(b.sample)], want[len(b.sample):]
	}
	return blocks
}

// check compares the answers to a block's sampled rows with the oracle
// and returns how many are wrong.
func (b *block) check(got [][]par.Neighbor, db *vec.Dataset) int64 {
	var wrong int64
	for j, r := range b.sample {
		if !tieRuleMatch(got[r], b.want[j], b.queries.Row(r), liveRow(db)) {
			wrong++
		}
	}
	return wrong
}

// liveRow resolves ids against a database with no deletions.
func liveRow(db *vec.Dataset) func(int) []float32 {
	return func(id int) []float32 {
		if id < 0 || id >= db.N() {
			return nil
		}
		return db.Row(id)
	}
}
