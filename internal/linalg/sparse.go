// Sparse linear algebra for the stiff solver's Newton systems. Mass-action
// Jacobians are structurally sparse — an equation depends only on the
// species of its own reactions — so on large networks the n×n dense LU
// (O(n²) memory, O(n³) factorization) dominates long before the compiled
// right-hand side does. CSR storage plus an LU with a one-time symbolic
// factorization (the fill-in pattern is computed once; every numeric
// refactorization reuses it) changes the asymptotic cost of every stiff
// solve: memory and work scale with the nonzero count, not with n².
package linalg

import (
	"fmt"
	"math"
	"slices"
)

// CSR is a compressed-sparse-row matrix with a fixed structural pattern.
// The pattern (RowPtr, ColIdx) is built once; re-evaluations overwrite
// Data in place. Column indices are sorted within each row.
type CSR struct {
	N      int
	RowPtr []int32 // len N+1; row i occupies [RowPtr[i], RowPtr[i+1])
	ColIdx []int32 // len NNZ, sorted within each row
	Data   []float64
}

// NewCSRPattern builds a zero-valued CSR matrix with the structural
// pattern given by the (row, col) coordinate lists. Duplicates merge;
// when withDiagonal is set every diagonal position is included even if
// absent from the lists (the form the solver's iteration matrix
// I − hβ·J needs).
func NewCSRPattern(n int, rows, cols []int32, withDiagonal bool) *CSR {
	if len(rows) != len(cols) {
		panic(fmt.Sprintf("linalg: pattern length mismatch %d vs %d", len(rows), len(cols)))
	}
	perRow := make([][]int32, n)
	for i, r := range rows {
		if r < 0 || int(r) >= n || cols[i] < 0 || int(cols[i]) >= n {
			panic(fmt.Sprintf("linalg: pattern entry (%d,%d) outside %d×%d", r, cols[i], n, n))
		}
		perRow[r] = append(perRow[r], cols[i])
	}
	if withDiagonal {
		for i := 0; i < n; i++ {
			perRow[i] = append(perRow[i], int32(i))
		}
	}
	m := &CSR{N: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		cs := perRow[i]
		slices.Sort(cs)
		last := int32(-1)
		for _, c := range cs {
			if c != last {
				m.ColIdx = append(m.ColIdx, c)
				last = c
			}
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	m.Data = make([]float64, len(m.ColIdx))
	return m
}

// NNZ returns the structural nonzero count.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Density returns NNZ / n².
func (m *CSR) Density() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.N) * float64(m.N))
}

// Clone returns a deep copy sharing no storage.
func (m *CSR) Clone() *CSR {
	return &CSR{
		N:      m.N,
		RowPtr: append([]int32(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Data:   append([]float64(nil), m.Data...),
	}
}

// Index returns the Data offset of entry (i, j), or -1 when (i, j) is
// structurally zero.
func (m *CSR) Index(i, j int) int {
	lo, hi := int(m.RowPtr[i]), int(m.RowPtr[i+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if c := int(m.ColIdx[mid]); c < j {
			lo = mid + 1
		} else if c > j {
			hi = mid
		} else {
			return mid
		}
	}
	return -1
}

// At returns m[i,j] (0 for structural zeros).
func (m *CSR) At(i, j int) float64 {
	if p := m.Index(i, j); p >= 0 {
		return m.Data[p]
	}
	return 0
}

// Zero clears all stored values, keeping the pattern.
func (m *CSR) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes dst = m·x. dst may not alias x.
func (m *CSR) MulVec(x, dst []float64) {
	if len(x) != m.N || len(dst) != m.N {
		panic("linalg: CSR MulVec shape mismatch")
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Data[p] * x[m.ColIdx[p]]
		}
		dst[i] = s
	}
}

// Dense expands the matrix to dense form (testing helper).
func (m *CSR) Dense() *Matrix {
	d := NewMatrix(m.N, m.N)
	m.DenseTo(d)
	return d
}

// DenseTo overwrites the N×N matrix d with the matrix's dense form —
// the solver's scatter of a CSR Jacobian onto its dense Newton path.
func (m *CSR) DenseTo(d *Matrix) {
	for i := range d.Data {
		d.Data[i] = 0
	}
	for i := 0; i < m.N; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d.Set(i, int(m.ColIdx[p]), m.Data[p])
		}
	}
}

// SparseLU is a sparse LU factorization without pivoting, specialized for
// the solver's diagonally dominant iteration matrices M = I − hβ·J. The
// symbolic phase (NewSparseLU) computes a fill-reducing minimum-degree
// ordering and the fill-in pattern of L+U once; Refactor reuses both for
// every numeric refactorization, and SolveTo runs the sparse triangular
// solves in place. A (near-)zero pivot makes Refactor return ErrSingular
// — the caller falls back exactly as it does for a singular dense
// factorization.
type SparseLU struct {
	n int
	// Fill-reducing symmetric permutation: the factorization is of PAPᵀ,
	// where new index i holds original variable perm[i].
	perm, iperm []int32
	// Merged L+U pattern of the permuted matrix, row-wise, column-sorted.
	// L is strictly below the diagonal with unit diagonal implied; U is
	// the diagonal and above.
	rowPtr []int32
	colIdx []int32
	diag   []int32 // diag[i] = offset of entry (i,i)
	data   []float64

	// workspaces: scatter row for Refactor, permuted rhs for SolveTo
	work []float64
	rhs  []float64

	refactorFlops int64 // multiply-add count of one numeric refactorization

	// factored is set by a successful Refactor and cleared by a failed
	// one: the factor of a failed Refactor is half written.
	factored bool
}

// minDegreeOrder returns a greedy minimum-degree elimination order of the
// symmetrized pattern — the classic fill-reducing heuristic. Mass-action
// networks mix near-banded variant families with a few reservoir "hub"
// species coupled to everything; natural order eliminates the hubs first
// and fills the factor completely, while minimum degree pushes them last
// and keeps fill within a small multiple of the original nonzeros. Ties
// break toward the lower index, so the order is deterministic.
//
// The candidates wait in a heap keyed by (degree, index), so each step
// pops the lowest index among minimum degree; a node whose degree
// changed is pushed again and its older keys are skipped when they
// surface. Each node's neighbours are an unordered list. A short list is
// searched through a marker array; a list longer than hubList also keeps
// a table of its members' positions, so a hub species coupled to every
// node is tested, grown and shrunk in O(1): one elimination costs time
// in its neighbourhood, not in n.
func minDegreeOrder(a *CSR) []int32 {
	n := a.N
	g := &elimGraph{adj: make([][]int32, n), pos: make([]map[int32]int32, n), mark: make([]int32, n)}
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; int(j) != i {
				g.adj[i] = append(g.adj[i], j)
				g.adj[j] = append(g.adj[j], int32(i))
			}
		}
	}
	for x := range g.adj {
		g.stamp++
		list := g.adj[x][:0]
		for _, u := range g.adj[x] {
			if g.mark[u] != g.stamp {
				g.mark[u] = g.stamp
				list = append(list, u)
			}
		}
		g.adj[x] = list
		g.index(int32(x))
	}
	key := func(v int32) uint64 { return uint64(len(g.adj[v]))<<32 | uint64(v) }
	queue := make(minHeap[uint64], 0, n)
	for v := range g.adj {
		queue.push(key(int32(v)))
	}
	perm := make([]int32, 0, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for len(perm) < n {
		k := queue.pop()
		v := int32(k)
		if !alive[v] || k != key(v) {
			continue // eliminated, or its degree has changed since
		}
		perm = append(perm, v)
		alive[v] = false
		nbrs := g.adj[v]
		for _, u := range nbrs {
			g.unlink(u, v)
		}
		// Eliminating v connects its surviving neighbours into a clique.
		for _, x := range nbrs {
			g.connect(x, nbrs)
			queue.push(key(x))
		}
		g.adj[v], g.pos[v] = nil, nil
	}
	return perm
}

// hubList is the list length above which a node of the elimination
// graph also indexes its neighbours' positions. On vulcan patterns of
// 3k to 30k equations 1024 orders as fast as 4096; at 30k a threshold of
// 256 is 1.6× slower, indexing every list 2.5× and indexing none 3.3×.
const hubList = 1024

// elimGraph is the symmetric elimination graph of minDegreeOrder.
type elimGraph struct {
	adj   [][]int32
	pos   []map[int32]int32 // pos[x][y] = index of y in adj[x], for long lists
	mark  []int32           // mark[u] == stamp: u is in the list being searched
	stamp int32
}

// index gives x's list a position table once it is long.
func (g *elimGraph) index(x int32) {
	if g.pos[x] != nil || len(g.adj[x]) <= hubList {
		return
	}
	p := make(map[int32]int32, 2*len(g.adj[x]))
	for i, u := range g.adj[x] {
		p[u] = int32(i)
	}
	g.pos[x] = p
}

// unlink removes v from u's list, moving u's last neighbour into its
// place.
func (g *elimGraph) unlink(u, v int32) {
	list := g.adj[u]
	last := len(list) - 1
	var i int
	if p := g.pos[u]; p != nil {
		i = int(p[v])
		p[list[last]] = int32(i)
		delete(p, v)
	} else {
		i = slices.Index(list, v)
	}
	list[i] = list[last]
	g.adj[u] = list[:last]
}

// connect adds to x's list every node of nbrs but x that it lacks.
func (g *elimGraph) connect(x int32, nbrs []int32) {
	if p := g.pos[x]; p != nil {
		for _, y := range nbrs {
			if _, ok := p[y]; !ok && y != x {
				p[y] = int32(len(g.adj[x]))
				g.adj[x] = append(g.adj[x], y)
			}
		}
		return
	}
	g.stamp++
	for _, u := range g.adj[x] {
		g.mark[u] = g.stamp
	}
	g.mark[x] = g.stamp
	for _, y := range nbrs {
		if g.mark[y] != g.stamp {
			g.adj[x] = append(g.adj[x], y)
		}
	}
	g.index(x)
}

// NewSparseLU chooses a fill-reducing minimum-degree ordering and
// performs the symbolic factorization of the given structural pattern
// (which must include every diagonal position; NewCSRPattern with
// withDiagonal guarantees that). Only the pattern is read, never Data.
func NewSparseLU(pattern *CSR) (*SparseLU, error) {
	n := pattern.N
	perm := minDegreeOrder(pattern)
	iperm := make([]int32, n)
	for i, v := range perm {
		iperm[v] = int32(i)
	}
	// Permute the pattern symmetrically: new entry (iperm[r], iperm[c]).
	prows := make([]int32, 0, pattern.NNZ())
	pcols := make([]int32, 0, pattern.NNZ())
	for i := 0; i < n; i++ {
		for p := pattern.RowPtr[i]; p < pattern.RowPtr[i+1]; p++ {
			prows = append(prows, iperm[i])
			pcols = append(pcols, iperm[pattern.ColIdx[p]])
		}
	}
	a := NewCSRPattern(n, prows, pcols, false)
	f := &SparseLU{
		n:      n,
		perm:   perm,
		iperm:  iperm,
		rowPtr: make([]int32, n+1),
		diag:   make([]int32, n),
		work:   make([]float64, n),
		rhs:    make([]float64, n),
	}
	// Row-wise symbolic elimination: the pattern of row i of L\U is the
	// closure of A's row i under "a nonzero in column k < i pulls in row
	// k's U pattern (columns > k)". Columns below the diagonal are
	// processed in increasing order via a small binary heap.
	uRows := make([][]int32, n) // U part (cols > k) of each finished row
	in := make([]bool, n)
	var cols []int32
	var heap minHeap[int32]
	for i := 0; i < n; i++ {
		cols = cols[:0]
		heap = heap[:0]
		sawDiag := false
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := a.ColIdx[p]
			if !in[c] {
				in[c] = true
				cols = append(cols, c)
				if int(c) < i {
					heap.push(c)
				}
				if int(c) == i {
					sawDiag = true
				}
			}
		}
		if !sawDiag {
			for _, c := range cols {
				in[c] = false
			}
			return nil, fmt.Errorf("linalg: sparse pattern misses diagonal %d", i)
		}
		for len(heap) > 0 {
			k := heap.pop()
			for _, c := range uRows[k] {
				if !in[c] {
					in[c] = true
					cols = append(cols, c)
					if int(c) < i {
						heap.push(c)
					}
				}
			}
		}
		slices.Sort(cols)
		for _, c := range cols {
			in[c] = false
			if int(c) == i {
				f.diag[i] = int32(len(f.colIdx))
			}
			f.colIdx = append(f.colIdx, c)
		}
		f.rowPtr[i+1] = int32(len(f.colIdx))
		// U part of this row, for later rows' merges.
		uRows[i] = f.colIdx[f.diag[i]+1 : f.rowPtr[i+1]]
	}
	f.data = make([]float64, len(f.colIdx))
	// The numeric refactorization's flop count is fixed by the pattern:
	// every L entry (i,k) triggers one division plus one multiply-add per
	// entry of U's row k.
	for i := 0; i < n; i++ {
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			k := f.colIdx[p]
			f.refactorFlops += 1 + int64(f.rowPtr[k+1]-f.diag[k]-1)
		}
	}
	return f, nil
}

// minHeap is a minimal binary min-heap.
type minHeap[T int32 | uint64] []T

func (h *minHeap[T]) push(v T) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *minHeap[T]) pop() T {
	v := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < len(*h) && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			return v
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
}

// Fork returns a factorization sharing f's symbolic structure (ordering,
// fill pattern, flop counts — the expensive one-time phase) with private
// numeric storage and workspaces, holding no factorization until its
// first Refactor. Every iteration matrix of one model has the same
// sparsity pattern, so each solver forks the model's one symbolic
// factorization instead of repeating the min-degree ordering and fill-in
// analysis. The shared slices are never written after NewSparseLU, so
// forks are safe to use from different goroutines (each fork from one
// goroutine at a time, as with any SparseLU).
func (f *SparseLU) Fork() *SparseLU {
	g := *f
	g.data = make([]float64, len(f.data))
	g.work = make([]float64, f.n)
	g.rhs = make([]float64, f.n)
	g.factored = false
	return &g
}

// N returns the factorization's dimension.
func (f *SparseLU) N() int { return f.n }

// FillNNZ returns the nonzero count of L+U including fill-in.
func (f *SparseLU) FillNNZ() int { return len(f.colIdx) }

// RefactorFlops returns the multiply-add count of one numeric
// refactorization — fixed by the symbolic pattern, the sparse analogue of
// the dense ⅔n³.
func (f *SparseLU) RefactorFlops() int64 { return f.refactorFlops }

// SolveFlops returns the multiply-add count of one triangular solve pair
// (the sparse analogue of the dense 2n²).
func (f *SparseLU) SolveFlops() int64 { return 2 * int64(len(f.colIdx)) }

// Refactor computes the numeric factorization of a, which must have a
// pattern contained in the symbolic pattern NewSparseLU was built from
// (structurally missing entries are treated as zero). After an error f
// holds no factorization until the next successful Refactor, and
// SolveTo reports ErrSingular.
func (f *SparseLU) Refactor(a *CSR) error {
	f.factored = false
	if a.N != f.n {
		return fmt.Errorf("linalg: Refactor of %d×%d matrix into %d×%d factorization", a.N, a.N, f.n, f.n)
	}
	n := f.n
	w := f.work[:n]
	rowPtr, diag, colIdx, data := f.rowPtr[:n+1], f.diag[:n], f.colIdx, f.data
	for i, v := range f.perm[:n] {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols := colIdx[lo:hi]
		// Scatter row perm[i] of A onto the fill pattern, mapping columns
		// through the fill-reducing permutation.
		for _, c := range cols {
			w[c] = 0
		}
		acols := a.ColIdx[a.RowPtr[v]:a.RowPtr[v+1]]
		avals := a.Data[a.RowPtr[v]:a.RowPtr[v+1]]
		avals = avals[:len(acols)]
		for p, c := range acols {
			w[f.iperm[c]] = avals[p]
		}
		// Eliminate with previous rows, in column order.
		for _, k := range colIdx[lo:diag[i]] {
			l := w[k] / data[diag[k]]
			w[k] = l
			if l == 0 {
				continue
			}
			ucols := colIdx[diag[k]+1 : rowPtr[k+1]]
			uvals := data[diag[k]+1 : rowPtr[k+1]]
			uvals = uvals[:len(ucols)]
			for q, c := range ucols {
				w[c] -= l * uvals[q]
			}
		}
		piv := w[i]
		if piv == 0 || math.IsNaN(piv) {
			return fmt.Errorf("%w (sparse pivot row %d)", ErrSingular, v)
		}
		// Gather back into the factor storage.
		row := data[lo:hi]
		row = row[:len(cols)]
		for p, c := range cols {
			row[p] = w[c]
		}
	}
	f.factored = true
	return nil
}

// SolveTo solves A·x = b into dst without allocating. dst and b must have
// length n; dst may alias b.
func (f *SparseLU) SolveTo(dst, b []float64) error {
	if !f.factored {
		return fmt.Errorf("%w (no factorization)", ErrSingular)
	}
	n := f.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("linalg: SolveTo length %d/%d, want %d", len(dst), len(b), n)
	}
	// The factorization is of PAPᵀ, so solve (PAPᵀ)(P·x) = P·b in the
	// internal buffer and permute the result back out.
	perm, r := f.perm[:n], f.rhs[:n]
	rowPtr, diag, colIdx, data := f.rowPtr[:n+1], f.diag[:n], f.colIdx, f.data
	for i, v := range perm {
		r[i] = b[v]
	}
	// Forward substitution: L has unit diagonal.
	for i := range r {
		cols := colIdx[rowPtr[i]:diag[i]]
		vals := data[rowPtr[i]:diag[i]]
		vals = vals[:len(cols)]
		s := r[i]
		for p, c := range cols {
			s -= vals[p] * r[c]
		}
		r[i] = s
	}
	// Back substitution with U. Refactor leaves no zero pivot.
	for i := n - 1; i >= 0; i-- {
		d := diag[i]
		cols := colIdx[d+1 : rowPtr[i+1]]
		vals := data[d+1 : rowPtr[i+1]]
		vals = vals[:len(cols)]
		s := r[i]
		for p, c := range cols {
			s -= vals[p] * r[c]
		}
		r[i] = s / data[d]
	}
	for i, v := range perm {
		dst[v] = r[i]
	}
	return nil
}
