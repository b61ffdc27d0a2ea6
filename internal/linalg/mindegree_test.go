package linalg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rms/internal/eqgen"
	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/rdl"
	"rms/internal/vulcan"
)

// referenceMinDegreeOrder is minDegreeOrder as first written: one map per
// node for its neighbours and a scan of every node per elimination, O(n²)
// in all. It is the oracle the heap-driven ordering must reproduce.
func referenceMinDegreeOrder(a *linalg.CSR) []int32 {
	n := a.N
	adj := make([]map[int32]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int32]struct{})
	}
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; int(j) != i {
				adj[i][j] = struct{}{}
				adj[j][int32(i)] = struct{}{}
			}
		}
	}
	perm := make([]int32, 0, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	nbrs := make([]int32, 0, n)
	for len(perm) < n {
		best, bd := -1, n+1
		for i := 0; i < n; i++ {
			if alive[i] && len(adj[i]) < bd {
				best, bd = i, len(adj[i])
			}
		}
		v := int32(best)
		perm = append(perm, v)
		alive[v] = false
		nbrs = nbrs[:0]
		for u := range adj[v] {
			nbrs = append(nbrs, u)
			delete(adj[u], v)
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				x, y := nbrs[i], nbrs[j]
				adj[x][y] = struct{}{}
				adj[y][x] = struct{}{}
			}
		}
		adj[v] = nil
	}
	return perm
}

// jacobianPattern is the solver's pattern of a system: its Jacobian
// entries plus the full diagonal.
func jacobianPattern(sys *eqgen.System) *linalg.CSR {
	entries := sys.Jacobian()
	rows := make([]int32, len(entries))
	cols := make([]int32, len(entries))
	for i, e := range entries {
		rows[i], cols[i] = int32(e.Row), int32(e.Col)
	}
	return linalg.NewCSRPattern(len(sys.Species), rows, cols, true)
}

func checkOrder(t *testing.T, name string, a *linalg.CSR) {
	t.Helper()
	got, want := linalg.MinDegreeOrder(a), referenceMinDegreeOrder(a)
	if !slices.Equal(got, want) {
		t.Errorf("%s (n=%d, nnz=%d): the ordering differs from the reference", name, a.N, a.NNZ())
	}
}

func TestMinDegreeOrderMatchesReferenceVulcan(t *testing.T) {
	for _, v := range []int{12, 35, 250} {
		sys, err := vulcan.System(v)
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, fmt.Sprintf("vulcan %d", v), jacobianPattern(sys))
	}
}

func TestMinDegreeOrderMatchesReferenceRDL(t *testing.T) {
	for _, v := range []int{10, 14} {
		prog, err := rdl.Parse(vulcan.RDLSource(v))
		if err != nil {
			t.Fatal(err)
		}
		net, err := network.Generate(prog)
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, fmt.Sprintf("RDL %d", v), jacobianPattern(eqgen.FromNetwork(net)))
	}
}

// Seeded random patterns: sparse rows, some with no off-diagonal entry,
// and a few hub rows and columns coupled to most nodes, so degree ties
// and clique fill both occur.
func TestMinDegreeOrderMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		var rows, cols []int32
		for e := rng.Intn(3 * n); e > 0; e-- {
			rows = append(rows, int32(rng.Intn(n)))
			cols = append(cols, int32(rng.Intn(n)))
		}
		for h := rng.Intn(4); h > 0; h-- {
			hub := int32(rng.Intn(n))
			for j := 0; j < n; j++ {
				if rng.Intn(4) != 0 {
					if rng.Intn(2) == 0 {
						rows, cols = append(rows, hub), append(cols, int32(j))
					} else {
						rows, cols = append(rows, int32(j)), append(cols, hub)
					}
				}
			}
		}
		checkOrder(t, fmt.Sprintf("random %d", trial), linalg.NewCSRPattern(n, rows, cols, true))
	}
}

// Seeded banded patterns with a few hub rows long enough that the hubs'
// neighbour lists outgrow linalg.HubList, so the lists that keep a
// position table are held to the reference too.
func TestMinDegreeOrderMatchesReferenceHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		n := 3*linalg.HubList/2 + rng.Intn(linalg.HubList)
		var rows, cols []int32
		for i := 0; i < n; i++ {
			w := 1 + rng.Intn(3)
			for d := 1; d <= w && i+d < n; d++ {
				rows, cols = append(rows, int32(i)), append(cols, int32(i+d))
			}
		}
		for e := n / 20; e > 0; e-- {
			rows = append(rows, int32(rng.Intn(n)))
			cols = append(cols, int32(rng.Intn(n)))
		}
		for h := 1 + rng.Intn(3); h > 0; h-- {
			hub := int32(rng.Intn(n))
			for j := 0; j < n; j++ {
				if rng.Intn(4) != 0 {
					rows, cols = append(rows, hub), append(cols, int32(j))
				}
			}
		}
		checkOrder(t, fmt.Sprintf("hubs %d", trial), linalg.NewCSRPattern(n, rows, cols, true))
	}
}
