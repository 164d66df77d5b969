package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/advice"
	"repro/internal/bits"
	"repro/internal/classviews"
	"repro/internal/graph"
	"repro/internal/trie"
	"repro/internal/view"
)

// level is one materialized depth: the class views and each class's
// class one depth up.
type level struct {
	views  []*view.View
	parent []int32
}

// tracedOracle rebuilds the Theorem 3.1 oracle (System.ComputeAdvice)
// from its layers' public calls, with a span around each: one
// classviews step per depth, the E1 trie, the E2 couple tries of each
// depth, the final label sweep, the canonical BFS tree and the encoder.
// It returns the advice, its encoding and the table the views were
// interned in, plus per-op counts. The run checks the encoding against
// ComputeAdvice's bit for bit.
func tracedOracle(tr *recorder, parent int, g *graph.Graph, counts map[string]float64) (*advice.Advice, bits.String, *view.Table, error) {
	n := g.N()
	if n < 3 {
		return nil, bits.String{}, nil, fmt.Errorf("oracle: %d nodes is below the model's minimum of 3", n)
	}
	tab := view.NewTable()
	lb := trie.NewSharedLabeler(tab)
	var mat *classviews.Materializer
	tr.do("classviews.step", parent, func() { mat = classviews.New(tab, g) })
	levels := []level{{}} // depth 0 is never read
	count := mat.NumClasses()
	classViews := count
	prev := make([]int32, n)
	for count < n {
		copy(prev, mat.Class())
		tr.do("classviews.step", parent, mat.Step)
		k := mat.NumClasses()
		if k == count {
			return nil, bits.String{}, nil, errors.New("oracle: graph is infeasible")
		}
		count = k
		classViews += k
		lv := level{views: append([]*view.View(nil), mat.Views()...), parent: make([]int32, k)}
		for c := 0; c < k; c++ {
			lv.parent[c] = prev[mat.Representative(c)]
		}
		levels = append(levels, lv)
	}
	phi := mat.Depth()

	var e1 *trie.Trie
	tr.do("trie.e1_build", parent, func() { e1 = lb.BuildTrie(levels[1].views, nil, nil) })

	var e2 trie.E2
	couplesTotal := 0
	for i := 2; i <= phi; i++ {
		tr.do("trie.e2_build", parent, func() {
			couples := buildCouples(lb, levels[i-1].views, levels[i], e1, e2)
			couplesTotal += len(couples)
			e2 = append(e2, trie.NewLevelList(i, couples))
		})
	}

	finalViews, cls := levels[phi].views, mat.Class()
	labelOf := make([]int, n)
	tr.do("trie.label", parent, func() {
		parallelFor(n, max(64, n/(8*runtime.GOMAXPROCS(0))), func(lo, hi int) {
			for v := lo; v < hi; v++ {
				labelOf[v] = lb.RetrieveLabel(finalViews[cls[v]], e1, e2)
			}
		})
	})
	root, err := checkLabels(labelOf)
	if err != nil {
		return nil, bits.String{}, nil, err
	}

	var bfs []graph.TreeEdge
	tr.do("graph.bfs_tree", parent, func() { bfs = g.CanonicalBFSTree(root) })
	tree := make([]advice.LabeledTreeEdge, 0, len(bfs))
	for _, e := range bfs {
		tree = append(tree, advice.LabeledTreeEdge{
			ParentLabel: labelOf[e.Parent], ChildLabel: labelOf[e.Child],
			PortParent: e.PortParent, PortChild: e.PortChild,
		})
	}
	sort.Slice(tree, func(i, j int) bool {
		if tree[i].ParentLabel != tree[j].ParentLabel {
			return tree[i].ParentLabel < tree[j].ParentLabel
		}
		return tree[i].PortParent < tree[j].PortParent
	})
	a := &advice.Advice{Phi: phi, E1: e1, E2: e2, Tree: tree}
	var enc bits.String
	tr.do("advice.encode", parent, func() { enc = a.Encode() })

	counts["classviews.class_views"] = float64(classViews)
	counts["view.table_views"] = float64(tab.Size())
	counts["trie.couples"] = float64(couplesTotal)
	counts["trie.labels"] = float64(n)
	return a, enc, tab, nil
}

// buildCouples builds the E2 entry of one depth: for every class one
// depth up whose depth-i children are several, the couple (its label,
// the trie discriminating those children), sorted by label.
func buildCouples(lb *trie.SharedLabeler, up []*view.View, cur level, e1 *trie.Trie, e2 trie.E2) []trie.Couple {
	kPrev := len(up)
	off := make([]int32, kPrev+1)
	for _, p := range cur.parent {
		off[p+1]++
	}
	for p := 0; p < kPrev; p++ {
		off[p+1] += off[p]
	}
	grouped := make([]*view.View, len(cur.views))
	fill := append([]int32(nil), off[:kPrev]...)
	for c, p := range cur.parent {
		grouped[fill[p]] = cur.views[c]
		fill[p]++
	}
	var parents []int32
	for p := 0; p < kPrev; p++ {
		if off[p+1]-off[p] > 1 {
			parents = append(parents, int32(p))
		}
	}
	couples := make([]trie.Couple, len(parents))
	parallelFor(len(parents), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			p := parents[t]
			couples[t] = trie.Couple{
				J: lb.RetrieveLabel(up[p], e1, e2),
				T: lb.BuildTrie(grouped[off[p]:off[p+1]], e1, e2),
			}
		}
	})
	sort.Slice(couples, func(a, b int) bool { return couples[a].J < couples[b].J })
	return couples
}

// checkLabels checks that the final labels are a permutation of 1..n
// and returns the node labeled 1.
func checkLabels(labelOf []int) (int, error) {
	n := len(labelOf)
	seen := make([]bool, n+1)
	root := -1
	for v, l := range labelOf {
		if l < 1 || l > n || seen[l] {
			return -1, fmt.Errorf("oracle: label %d of node %d is out of range or repeated", l, v)
		}
		seen[l] = true
		if l == 1 {
			root = v
		}
	}
	return root, nil
}

// parallelFor covers [0, n) with fn(lo, hi) calls of at most chunk
// indices, taken off a shared counter by GOMAXPROCS goroutines.
func parallelFor(n, chunk int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+chunk-1)/chunk)
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				fn(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
}
