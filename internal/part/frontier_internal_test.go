package part

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// PermutedGraphs are large-diameter graphs whose node ids are scattered
// by graph.RelabelNodes, so a class's members lie far apart in node
// order and most depths take the sparse path: a thin wave of touched
// members moved to the tails of big classes. The differential suite in
// frontier_test.go runs them too.
func PermutedGraphs() map[string]*graph.Graph {
	perm := func(g *graph.Graph, seed int64) *graph.Graph {
		return graph.RelabelNodes(g, rand.New(rand.NewSource(seed)).Perm(g.N()))
	}
	return map[string]*graph.Graph{
		"perm-grid-30x31":     perm(graph.Grid(30, 31), 1),
		"perm-lollipop-8-120": perm(graph.Lollipop(8, 120), 2),
		"perm-path-301":       perm(graph.Path(301), 3),
	}
}

// TestFrontierRunInvariants checks, after every Step, the state the
// sparse path reads without verifying: each live id's run holds exactly
// its members, pos inverts order after a sparse Step, and tcount and the
// touched bitmap are back to zero. It also checks Hopcroft's rule, which
// no accessor can see: every split parent id stays on a largest part,
// and on the untouched block when that block ties for largest.
func TestFrontierRunInvariants(t *testing.T) {
	for name, g := range PermutedGraphs() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				r := NewFrontierRefiner(g, workers)
				sparse := 0
				for r.FrontierLen() > 0 {
					before := append([]int32(nil), r.class...)
					touched := r.touchedSet()
					oldNext := r.nextID
					r.Step()
					if !r.dense {
						sparse++
					}
					r.checkRuns(t)
					r.checkRetention(t, before, touched, oldNext)
				}
				if sparse == 0 {
					t.Fatal("no sparse Step: the touched-tail path went untested")
				}
			})
		}
	}
}

// touchedSet recomputes, from the frontier, the nodes the next sparse
// Step must touch: the neighbors of frontier members in non-singleton
// classes.
func (r *FrontierRefiner) touchedSet() map[int32]bool {
	out := make(map[int32]bool)
	for _, p := range r.frontier {
		for i := r.runStart[p]; i < r.runEnd[p]; i++ {
			u := r.order[i]
			for e := r.off[u]; e < r.off[u+1]; e++ {
				if w := r.nbr[e]; r.runEnd[r.class[w]]-r.runStart[r.class[w]] >= 2 {
					out[w] = true
				}
			}
		}
	}
	return out
}

func (r *FrontierRefiner) checkRuns(t *testing.T) {
	t.Helper()
	live := 0
	for i := 0; i < r.n; {
		c := r.class[r.order[i]]
		if int(r.runStart[c]) != i {
			t.Fatalf("depth %d: run of id %d starts at %d, node %d found at %d", r.depth, c, r.runStart[c], r.order[i], i)
		}
		for ; i < int(r.runEnd[c]); i++ {
			if v := r.order[i]; r.class[v] != c {
				t.Fatalf("depth %d: node %d (id %d) inside the run of id %d", r.depth, v, r.class[v], c)
			}
			if !r.posStale && r.pos[r.order[i]] != int32(i) {
				t.Fatalf("depth %d: pos[%d] = %d, order has it at %d", r.depth, r.order[i], r.pos[r.order[i]], i)
			}
		}
		live++
	}
	if live != r.k {
		t.Fatalf("depth %d: %d runs, %d classes", r.depth, live, r.k)
	}
	if r.posStale != r.dense {
		t.Fatalf("depth %d: posStale %v after a Step with dense %v", r.depth, r.posStale, r.dense)
	}
	for c, n := range r.tcount {
		if n != 0 {
			t.Fatalf("depth %d: tcount[%d] = %d between Steps", r.depth, c, n)
		}
	}
	for i, w := range r.touched {
		if w != 0 {
			t.Fatalf("depth %d: touched word %d = %#x between Steps", r.depth, i, w)
		}
	}
}

// checkRetention checks Hopcroft's rule on the Step that moved class
// from before to r.class: ids at or above oldNext are the carved parts.
func (r *FrontierRefiner) checkRetention(t *testing.T, before []int32, touched map[int32]bool, oldNext int32) {
	t.Helper()
	parts := make(map[int32]map[int32]int) // parent id -> new id -> size
	for v, c := range before {
		if parts[c] == nil {
			parts[c] = make(map[int32]int)
		}
		parts[c][r.class[v]]++
	}
	for c, sizes := range parts {
		if len(sizes) < 2 {
			continue
		}
		largest, untouched, untouchedID := 0, 0, int32(-1)
		for id, size := range sizes {
			if id != c && id < oldNext {
				t.Fatalf("depth %d: members of id %d moved to the older id %d", r.depth, c, id)
			}
			largest = max(largest, size)
		}
		if sizes[c] != largest {
			t.Fatalf("depth %d: id %d kept a part of %d members, the largest has %d", r.depth, c, sizes[c], largest)
		}
		if r.dense {
			continue
		}
		for v, p := range before {
			if p == c && !touched[int32(v)] {
				untouched++
				untouchedID = r.class[v]
			}
		}
		if untouched == largest && untouchedID != c {
			t.Fatalf("depth %d: the untouched block of id %d (%d members) tied for largest but lost the id", r.depth, c, untouched)
		}
	}
}
