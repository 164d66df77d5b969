package advice

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/trie"
	"repro/internal/view"
)

// The size accounting inside the proof of Theorem 3.1: E1 is a trie of
// size 2|S1|-1, and the tries inside E2 have total size at most
// 3(|S_phi| - |S_2|) <= 3n (condition C2, equation 13).
func TestAdviceTrieSizeAccounting(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Lollipop(3, 10), // deep phi
		graph.Lollipop(3, 18), // deeper
		graph.Lollipop(8, 10), // high degree, phi ~ 4
		graph.RandomConnected(40, 20, 5),
	} {
		tab := view.NewTable()
		o := NewOracle(tab)
		a, err := o.ComputeAdvice(g)
		if err != nil {
			t.Fatal(err)
		}
		// |S1| = number of distinct depth-1 views.
		s1 := map[*view.View]bool{}
		for _, v := range view.Levels(tab, g, 1)[1] {
			s1[v] = true
		}
		if a.E1.Size() != 2*len(s1)-1 {
			t.Errorf("E1 size %d, want 2|S1|-1 = %d", a.E1.Size(), 2*len(s1)-1)
		}
		total := 0
		for _, level := range a.E2 {
			for _, c := range level.Couples {
				total += c.T.Size()
			}
		}
		if total > 3*g.N() {
			t.Errorf("E2 trie sizes sum to %d > 3n = %d", total, 3*g.N())
		}
	}
}

// Every internal query of every trie in the advice is well-formed: the
// depth-1 trie uses kinds 0/1 with positive second component; deeper
// tries use port indices below the maximum degree and positive labels.
func TestAdviceTrieQueriesWellFormed(t *testing.T) {
	g := graph.Lollipop(3, 14)
	o := NewOracle(view.NewTable())
	a, err := o.ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	var checkDepth1 func(tr *trie.Trie)
	checkDepth1 = func(tr *trie.Trie) {
		if tr.IsLeaf() {
			return
		}
		if tr.A != 0 && tr.A != 1 {
			t.Errorf("depth-1 query kind %d", tr.A)
		}
		if tr.B < 1 {
			t.Errorf("depth-1 query parameter %d", tr.B)
		}
		checkDepth1(tr.Left)
		checkDepth1(tr.Right)
	}
	checkDepth1(a.E1)
	maxDeg := g.MaxDegree()
	var checkDeep func(tr *trie.Trie)
	checkDeep = func(tr *trie.Trie) {
		if tr.IsLeaf() {
			return
		}
		if tr.A < 0 || tr.A >= maxDeg {
			t.Errorf("deep query port %d out of [0,%d)", tr.A, maxDeg)
		}
		if tr.B < 1 || tr.B > g.N() {
			t.Errorf("deep query label %d out of [1,n]", tr.B)
		}
		checkDeep(tr.Left)
		checkDeep(tr.Right)
	}
	for _, level := range a.E2 {
		for _, c := range level.Couples {
			if c.J < 1 || c.J > g.N() {
				t.Errorf("couple index %d out of [1,n]", c.J)
			}
			checkDeep(c.T)
		}
	}
	// E2 levels cover exactly depths 2..phi.
	if len(a.E2) != a.Phi-1 {
		t.Errorf("E2 has %d levels, want phi-1 = %d", len(a.E2), a.Phi-1)
	}
	for i, level := range a.E2 {
		if level.Depth != i+2 {
			t.Errorf("E2 level %d has depth %d", i, level.Depth)
		}
	}
}

func TestValidateCatchesBadTrees(t *testing.T) {
	bad := []*Advice{
		{Phi: 1, Tree: []LabeledTreeEdge{{ParentLabel: 1, ChildLabel: 1, PortParent: 0, PortChild: 0}}},
		{Phi: 1, Tree: []LabeledTreeEdge{{ParentLabel: 5, ChildLabel: 2, PortParent: 0, PortChild: 0}}},
		{Phi: 1, Tree: []LabeledTreeEdge{
			{ParentLabel: 3, ChildLabel: 2, PortParent: 0, PortChild: 0},
			{ParentLabel: 2, ChildLabel: 3, PortParent: 1, PortChild: 1},
		}},
		{Phi: 1, Tree: []LabeledTreeEdge{
			{ParentLabel: 1, ChildLabel: 2, PortParent: 0, PortChild: 0},
			{ParentLabel: 1, ChildLabel: 2, PortParent: 1, PortChild: 1},
		}},
		// A cycle through 1000 labels that never reaches the root.
		{Phi: 1, Tree: chainTree(2, 1001, func(l int) int {
			if l == 1001 {
				return 2
			}
			return l + 1
		})},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	good := &Advice{Phi: 1, Tree: []LabeledTreeEdge{
		{ParentLabel: 1, ChildLabel: 2, PortParent: 0, PortChild: 0},
		{ParentLabel: 2, ChildLabel: 3, PortParent: 1, PortChild: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
}

// chainTree returns the edges child l -> parent(l) for l in [lo, hi].
func chainTree(lo, hi int, parent func(l int) int) []LabeledTreeEdge {
	tree := make([]LabeledTreeEdge, 0, hi-lo+1)
	for l := lo; l <= hi; l++ {
		tree = append(tree, LabeledTreeEdge{ParentLabel: parent(l), ChildLabel: l, PortParent: 1, PortChild: 0})
	}
	return tree
}

// Validate must be linear in the tree, not in n times its depth: a path
// of 10^5 labels (the depth a lollipop or broom reaches at that n) took
// minutes under a per-label walk to the root and takes milliseconds now.
// The bound leaves three orders of magnitude of slack for slow runners.
func TestValidateDeepChain(t *testing.T) {
	const n = 100000
	a := &Advice{Phi: 1, Tree: chainTree(2, n, func(l int) int { return l - 1 })}
	start := time.Now()
	if err := a.Validate(); err != nil {
		t.Fatalf("chain of %d labels rejected: %v", n, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("validating a chain of %d labels took %v", n, d)
	}
}
