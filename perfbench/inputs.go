package main

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/part"
)

// config fixes the shape of every workload's inputs; the seed varies
// the inputs within that shape. fullConfig is the benchmark; the tests
// run the same code on tinyConfig.
type config struct {
	setupReps int // least set-ups per run (they repeat for at least a second); setup_s is their median

	shallowN, shallowPhi int // shallow-random: n and the φ every drawn graph has

	deepW            int // deep-grid election input: the natural-port deepW×(deepW+1) grid
	deepPhi          int // its recorded φ
	deepBits         int // its recorded advice length
	bigW, bigH       int // deep-grid φ input: the bigW×bigH grid
	bigPhi           int // its recorded φ
	shardN, shardPhi int // sharded-random: n and φ
	shards           int // and its shard count

	svcN, svcPhi int // advised-mix: graph size and φ of every served graph
	svcPool      int // graphs served before the window; hot and warm requests draw from them
	svcStream    int // requests drawn per run (the window ends early if they run out)
}

var fullConfig = config{
	setupReps:  3,
	shallowN:   100_000,
	shallowPhi: 5,
	deepW:      140,
	deepPhi:    69,
	deepBits:   6_693_426,
	bigW:       1000,
	bigH:       1000,
	bigPhi:     499,
	shardN:     50_000,
	shardPhi:   4,
	shards:     2,
	svcN:       10_000,
	svcPhi:     4,
	svcPool:    8,
	svcStream:  9_000,
}

// shardSeed fixes the sharded engine's retry jitter.
const shardSeed = 7

// phiSeeds draws seeds off rng until count of them make
// RandomConnectedStream(n, n/2, seed) a graph with election index phi,
// so that every benchmark seed yields inputs of one shape: φ sets the
// depths the oracle materializes and the rounds the election runs. It
// runs before set-up, which then builds the graphs from the seeds, so
// that setup_s does not depend on how many draws a seed needed.
func phiSeeds(rng *rand.Rand, n, phi, count int) ([]int64, error) {
	var seeds []int64
	for try := 0; len(seeds) < count; try++ {
		if try >= 64*count {
			return nil, fmt.Errorf("fewer than %d random graphs with n=%d and φ=%d in %d draws", count, n, phi, try)
		}
		s := rng.Int63()
		if p, ok := part.ElectionIndex(randomGraph(n, s)); ok && p == phi {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}

// randomGraph is the random connected graph every random workload uses.
func randomGraph(n int, seed int64) *graph.Graph {
	return graph.RandomConnectedStream(n, n/2, seed)
}

// permuted returns g with its node ids permuted by rng. The anonymous
// graph is unchanged, so φ and the advice must be too.
func permuted(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	return graph.RelabelNodes(g, rng.Perm(g.N()))
}
